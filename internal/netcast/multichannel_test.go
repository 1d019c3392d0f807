package netcast

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func startMultichannelServer(t *testing.T, channels int) (*Server, *xmldoc.Collection) {
	t.Helper()
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		Channels:      channels,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, coll
}

func TestMultichannelConfigValidation(t *testing.T) {
	coll := testCollection(t)
	for _, tc := range []struct {
		name     string
		mode     broadcast.Mode
		channels int
	}{
		{"one-tier multichannel", broadcast.OneTierMode, 4},
		{"negative channels", broadcast.TwoTierMode, -1},
		{"too many channels", broadcast.TwoTierMode, 257},
	} {
		if _, err := StartServer(ServerConfig{
			Collection:    coll,
			Mode:          tc.mode,
			Channels:      tc.channels,
			CycleCapacity: 10000,
		}); err == nil {
			t.Errorf("%s: StartServer accepted invalid config", tc.name)
		}
	}
}

func TestMultichannelAddrs(t *testing.T) {
	srv, _ := startMultichannelServer(t, 4)
	addrs := srv.ChannelAddrs()
	if len(addrs) != 4 {
		t.Fatalf("ChannelAddrs returned %d entries, want 4", len(addrs))
	}
	if addrs[0] != srv.BroadcastAddr() {
		t.Errorf("channel 0 addr %s != BroadcastAddr %s", addrs[0], srv.BroadcastAddr())
	}
	seen := make(map[string]bool)
	for _, a := range addrs {
		if seen[a] {
			t.Errorf("duplicate channel address %s", a)
		}
		seen[a] = true
	}
	if srv.Channels() != 4 {
		t.Errorf("Channels() = %d, want 4", srv.Channels())
	}
}

// TestMultichannelRetrieve runs the end-to-end access protocol over K
// parallel streams: submit over the uplink, read the index channel for the
// directory and first tier, hop to the data channels for the documents.
func TestMultichannelRetrieve(t *testing.T) {
	for _, k := range []int{2, 4} {
		t.Run(map[int]string{2: "k2", 4: "k4"}[k], func(t *testing.T) {
			srv, coll := startMultichannelServer(t, k)
			cl, err := DialChannels(srv.UplinkAddr(), srv.ChannelAddrs(), core.SizeModel{})
			if err != nil {
				t.Fatalf("DialChannels: %v", err)
			}
			defer cl.Close()

			q := xpath.MustParse("/nitf/body/body.content/block")
			want := q.MatchingDocs(coll)
			if len(want) == 0 {
				t.Fatal("test query matches nothing")
			}
			if err := cl.Submit(q); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			docs, stats, err := cl.Retrieve(ctx, q)
			if err != nil {
				t.Fatalf("Retrieve: %v", err)
			}
			checkRetrieved(t, coll, docs, want)
			if stats.TuningBytes <= 0 || stats.Cycles == 0 {
				t.Errorf("stats = %+v", stats)
			}
		})
	}
}

// TestMultichannelCapture records every channel of a K=2 broadcast and
// checks the captured shares are structurally sound: the index channel
// carries head, directory and index; the data channel carries exactly the
// documents the directory places on it.
func TestMultichannelCapture(t *testing.T) {
	srv, coll := startMultichannelServer(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	addrs := srv.ChannelAddrs()
	bufs := make([]bytes.Buffer, len(addrs))
	recDone := make(chan error, len(addrs))
	for i, addr := range addrs {
		go func(i int, addr string) {
			_, err := Record(ctx, addr, 2, &bufs[i])
			recDone <- err
		}(i, addr)
	}
	waitSubs := func() bool { return srv.Stats().Subscribers >= len(addrs) }
	for !waitSubs() {
		select {
		case <-ctx.Done():
			t.Fatal("timed out waiting for recorder subscriptions")
		case <-time.After(2 * time.Millisecond):
		}
	}

	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	q := xpath.MustParse("/nitf/body/body.content/block")
	if len(q.MatchingDocs(coll)) == 0 {
		t.Fatal("test query matches nothing")
	}
	if err := cl.Submit(q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(addrs); i++ {
		if err := <-recDone; err != nil {
			t.Fatalf("Record: %v", err)
		}
	}

	chanRecords := make([][]CycleRecord, len(addrs))
	for i := range bufs {
		recs, err := ReadCapture(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatalf("ReadCapture channel %d: %v", i, err)
		}
		if len(recs) == 0 {
			t.Fatalf("channel %d capture is empty", i)
		}
		chanRecords[i] = recs
	}

	for _, rec := range chanRecords[0] {
		if rec.IsData || rec.Channel != 0 || rec.Channels != 2 {
			t.Fatalf("index-channel record misidentified: %+v", rec)
		}
		if rec.IndexSeg == nil || rec.DirSeg == nil {
			t.Fatalf("index-channel record cycle %d missing segments", rec.Number)
		}
		if len(rec.Docs) != 0 || rec.SecondTierSeg != nil {
			t.Fatalf("index-channel record cycle %d carries data segments", rec.Number)
		}
		if _, err := rec.DecodeIndex(core.DefaultSizeModel()); err != nil {
			t.Fatalf("cycle %d index decode: %v", rec.Number, err)
		}
	}
	// Match each index record's directory against the data channel's share
	// of the same cycle.
	dataByNumber := make(map[uint32]CycleRecord)
	for _, rec := range chanRecords[1] {
		if !rec.IsData || rec.Channel != 1 {
			t.Fatalf("data-channel record misidentified: %+v", rec)
		}
		if rec.SecondTierSeg == nil {
			t.Fatalf("data record cycle %d missing second-tier stripe", rec.Number)
		}
		dataByNumber[rec.Number] = rec
	}
	matched := 0
	for _, rec := range chanRecords[0] {
		data, ok := dataByNumber[rec.Number]
		if !ok {
			continue // trailing share lost to capture cutoff
		}
		matched++
		dir, err := rec.ChannelDir(core.DefaultSizeModel())
		if err != nil {
			t.Fatalf("cycle %d dir decode: %v", rec.Number, err)
		}
		if len(dir) != int(rec.NumDocs) {
			t.Errorf("cycle %d: dir has %d entries, channel head promises %d docs", rec.Number, len(dir), rec.NumDocs)
		}
		fromDir := make(map[xmldoc.DocID]bool)
		for _, e := range dir {
			if e.Channel != 1 {
				t.Errorf("cycle %d: dir entry %v names channel %d of a 2-channel cycle", rec.Number, e.Doc, e.Channel)
			}
			fromDir[e.Doc] = true
		}
		if len(data.Docs) != len(dir) {
			t.Errorf("cycle %d: data channel carried %d docs, dir lists %d", rec.Number, len(data.Docs), len(dir))
		}
		for i := range data.Docs {
			if !fromDir[data.DocID(i)] {
				t.Errorf("cycle %d: doc %d aired off-directory", rec.Number, data.DocID(i))
			}
		}
		st, err := data.SecondTier(core.DefaultSizeModel())
		if err != nil {
			t.Fatalf("cycle %d stripe decode: %v", rec.Number, err)
		}
		if len(st) != len(data.Docs) {
			t.Errorf("cycle %d: stripe lists %d docs, channel aired %d", rec.Number, len(st), len(data.Docs))
		}
	}
	if matched == 0 {
		t.Fatal("no cycle captured on both channels")
	}
}

// TestStrayIndexFramesOnDataChannelAreDozed pins the one-loop client's gate:
// cycle state is only ever taken from the index channel, so a checksum-valid
// cycle head, channel directory or first tier turning up on a data stream is
// dozed and leaves the head, the wanted set and the tuner where they were.
func TestStrayIndexFramesOnDataChannelAreDozed(t *testing.T) {
	stray, err := (&wire.CycleHead{Number: 9, TwoTier: true}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	head := &wire.CycleHead{Number: 5, TwoTier: true}
	want := map[xmldoc.DocID]struct{}{3: {}}
	r := &retrieval{
		c:           &Client{chans: []*chanStream{{}, {}}},
		cycleState:  cycleState{head: head, want: want, onChan: []bool{false, true}},
		streamState: streamState{synced: true, docsLeft: 2},
		cur:         1,
	}
	var air int64
	for _, fr := range []airFrame{
		{t: wire.FrameCycleHead, payload: stray, air: 40},
		{t: wire.FrameChannelDir, payload: []byte{0xFF}, air: 7},
		{t: wire.FrameIndex, payload: []byte{0xFF}, air: 11},
	} {
		if err := r.handle(fr); err != nil {
			t.Fatalf("frame type %d on a data channel: %v", fr.t, err)
		}
		air += fr.air
	}
	if r.head != head || !reflect.DeepEqual(r.want, want) || r.cur != 1 || r.docsLeft != 2 || r.dir != nil {
		t.Errorf("stray index frames changed the cycle state: head=%+v want=%v cur=%d docsLeft=%d dir=%v",
			r.head, r.want, r.cur, r.docsLeft, r.dir)
	}
	if r.stats.DozeBytes != air || r.stats.TuningBytes != 0 || r.stats.Cycles != 0 {
		t.Errorf("stats = %+v, want %d doze bytes and nothing else", r.stats, air)
	}
}
