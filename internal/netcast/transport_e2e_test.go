package netcast

import (
	"bytes"
	"context"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/netcast/chaos"
	"repro/internal/netcast/transport"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func startCompressedServer(t *testing.T, mode broadcast.Mode) (*Server, *xmldoc.Collection) {
	t.Helper()
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          mode,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
		Compress:      true,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, coll
}

// TestCompressedEndToEndRetrieve runs the full protocol over a compressed
// downlink in both modes: the client sniffs the transport hello, inflates
// every envelope and must retrieve exactly its result set, with tuning
// accounted in compressed envelope bytes.
func TestCompressedEndToEndRetrieve(t *testing.T) {
	for _, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, coll := startCompressedServer(t, mode)
			cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
			if err != nil {
				t.Fatalf("Dial: %v", err)
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
			if !cl.chans[0].src.isTransport() {
				t.Error("client did not negotiate the transport layer")
			}
			if stats.TuningBytes <= 0 || stats.Cycles == 0 {
				t.Errorf("stats = %+v", stats)
			}
		})
	}
}

// TestCompressedDownlinkShrinksTuning compares the same retrieval over a
// bare and a compressed downlink: the compressed run's tuning bytes (whole
// envelopes for the frames the client keeps) must come in below the bare
// run's, because XML deflates well and the envelope overhead is a few bytes
// per frame.
func TestCompressedDownlinkShrinksTuning(t *testing.T) {
	run := func(compress bool) int64 {
		t.Helper()
		coll := testCollection(t)
		srv, err := StartServer(ServerConfig{
			Collection:    coll,
			Mode:          broadcast.TwoTierMode,
			CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
			CycleInterval: 5 * time.Millisecond,
			Compress:      compress,
		})
		if err != nil {
			t.Fatalf("StartServer: %v", err)
		}
		defer srv.Shutdown()
		cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer cl.Close()
		q := xpath.MustParse("/nitf")
		if err := cl.Submit(q); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_, stats, err := cl.Retrieve(ctx, q)
		if err != nil {
			t.Fatalf("Retrieve: %v", err)
		}
		return stats.TuningBytes
	}
	bare := run(false)
	comp := run(true)
	if comp >= bare {
		t.Errorf("compressed tuning %d B did not improve on bare %d B", comp, bare)
	}
	t.Logf("tuning bytes: bare %d compressed %d (ratio %.2f)", bare, comp, float64(comp)/float64(bare))
}

// TestCompressedRetrieveUnderChaos reruns the fault-tolerance acceptance
// test with compression negotiated: bit flips and byte drops now land on
// transport envelopes (the chaos proxy sits below the transport layer), so
// recovery exercises the transport resync path, and forced disconnects
// exercise the hello re-sniff on redial. The client must still end up with
// exactly its result set.
func TestCompressedRetrieveUnderChaos(t *testing.T) {
	coll, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 30, Seed: 77})
	if err != nil {
		t.Fatalf("Documents: %v", err)
	}
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
		Compress:      true,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()
	proxy, err := chaos.NewProxy(srv.BroadcastAddr(), chaos.Config{
		Seed:     1,
		FlipProb: 2e-4,
		DropProb: 2e-5,
	})
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer proxy.Close()

	q := xpath.MustParse("/nitf")
	cl, err := Dial(srv.UplinkAddr(), proxy.Addr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	done := make(chan struct{})
	var (
		docs  []*xmldoc.Document
		stats ClientStats
		rerr  error
	)
	go func() {
		defer close(done)
		docs, stats, rerr = cl.Retrieve(ctx, q)
	}()

	// Forced disconnect mid-retrieval: the client must redial and re-sniff
	// the transport hello on the fresh connection.
	deadline := time.Now().Add(30 * time.Second)
	for proxy.LiveConns() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client never connected through the proxy")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if proxy.KillAll() == 0 {
		t.Fatal("KillAll found no live links")
	}
	<-done

	if rerr != nil {
		t.Fatalf("Retrieve: %v (stats %+v)", rerr, stats)
	}
	ids := make([]xmldoc.DocID, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	if want := q.MatchingDocs(coll); !reflect.DeepEqual(ids, want) {
		t.Errorf("retrieved %v, want %v", ids, want)
	}
	if stats.Reconnects < 1 {
		t.Errorf("Reconnects = %d, want >= 1 (stats %+v)", stats.Reconnects, stats)
	}
	if stats.Resyncs < 1 {
		t.Errorf("Resyncs = %d, want >= 1 (stats %+v)", stats.Resyncs, stats)
	}
	if st := proxy.Stats(); st.BitFlips == 0 {
		t.Errorf("proxy injected too little chaos: %+v", st)
	}
}

// TestCompressOffKeepsBareWire pins the K=1 byte-identity invariant's wire
// side: with compression off the downlink opens directly with a v2 frame
// sync (no hello, no envelopes — not a single byte differs from the bare
// protocol), and with compression on it opens with the transport hello.
func TestCompressOffKeepsBareWire(t *testing.T) {
	read4 := func(srv *Server) []byte {
		t.Helper()
		// An idle server airs nothing: submit demand so cycles flow.
		cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer cl.Close()
		if err := cl.Submit(xpath.MustParse("/nitf")); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		conn, err := net.DialTimeout("tcp", srv.BroadcastAddr(), 5*time.Second)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 4)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatalf("read: %v", err)
		}
		return buf
	}
	bare, _ := startServer(t, broadcast.TwoTierMode)
	if b := read4(bare); b[0] != wire.FrameSync0 || b[1] != wire.FrameSync1 {
		t.Errorf("bare downlink opens %x, want v2 frame sync %x %x", b, wire.FrameSync0, wire.FrameSync1)
	}
	comp, _ := startCompressedServer(t, broadcast.TwoTierMode)
	if b := read4(comp); !transport.IsHelloPrefix(b) {
		t.Errorf("compressed downlink opens %x, want transport hello", b)
	}
}

// TestRecordCompressedCapture records a compressed broadcast (hello and
// transport envelopes verbatim) and reads it back: the records
// must decode to the same index and documents a live client would see.
func TestRecordCompressedCapture(t *testing.T) {
	srv, coll := startCompressedServer(t, broadcast.TwoTierMode)
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	q := xpath.MustParse("/nitf")
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var buf bytes.Buffer
	n, err := Record(ctx, srv.BroadcastAddr(), 2, &buf)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if n != 2 {
		t.Fatalf("recorded %d cycles, want 2", n)
	}
	// The capture is the air itself: the magic, then the transport hello the
	// compressed downlink opens with.
	if !bytes.HasPrefix(buf.Bytes(), []byte(captureMagic)) || !transport.IsHelloPrefix(buf.Bytes()[len(captureMagic):]) {
		t.Fatalf("capture opens %q, want %q and a transport hello", buf.Bytes()[:12], captureMagic)
	}
	records, err := ReadCapture(&buf)
	if err != nil {
		t.Fatalf("ReadCapture: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("no cycle records")
	}
	for i := range records {
		ix, err := records[i].DecodeIndex(core.DefaultSizeModel())
		if err != nil {
			t.Fatalf("record %d DecodeIndex: %v", i, err)
		}
		if ix.NumNodes() == 0 {
			t.Errorf("record %d decoded an empty index", i)
		}
		for j := range records[i].Docs {
			if id := records[i].DocID(j); coll.ByID(id) == nil {
				t.Errorf("record %d doc %d: unknown ID %d", i, j, id)
			}
		}
	}
}

// TestMuxEndToEnd drives several logical clients over one multiplexed
// uplink: every submit is acked on its own stream, rejections surface as
// RejectedError exactly as on a dedicated connection, and a subscriber
// retrieves a mux-submitted query's documents off the air.
func TestMuxEndToEnd(t *testing.T) {
	srv, coll := startCompressedServer(t, broadcast.TwoTierMode)
	m, err := DialMux(srv.UplinkAddr(), MuxConfig{Compress: true})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer m.Close()
	if !m.Compressed() {
		t.Error("mux did not negotiate compression against a compressing server")
	}
	if m.Credit() <= 0 {
		t.Errorf("credit = %d, want > 0", m.Credit())
	}

	q := xpath.MustParse("/nitf/body/body.content/block")
	want := q.MatchingDocs(coll)
	const n = 8
	for i := 0; i < n; i++ {
		lc, err := m.Open()
		if err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
		if err := lc.Submit(q); err != nil {
			t.Fatalf("logical client %d Submit: %v", i, err)
		}
	}

	// A separate rejected query must fail with RejectedError, not poison
	// the mux.
	bad, err := m.Open()
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := bad.Submit(xpath.MustParse("/definitely/absent")); err == nil {
		t.Error("empty-result query accepted over mux")
	}

	// The mux-submitted demand airs: an ordinary subscriber retrieves it.
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Submit(q); err != nil {
		t.Fatalf("subscriber Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	docs, _, err := cl.Retrieve(ctx, q)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	ids := make([]xmldoc.DocID, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("retrieved %v, want %v", ids, want)
	}
	if m.UnknownFrames() != 0 {
		t.Errorf("mux dropped %d frames as unknown", m.UnknownFrames())
	}
	if m.Err() != nil {
		t.Errorf("mux failed: %v", m.Err())
	}
}

// TestMuxTenThousandLogicalClients is the fan-in acceptance test: one TCP
// connection sustains ten thousand logical clients, each submitting its own
// query and receiving its own per-stream ack, race-clean. Workers drive
// many streams each so the test exercises concurrent submits without ten
// thousand goroutines.
func TestMuxTenThousandLogicalClients(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-stream soak skipped in -short mode")
	}
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 50 * time.Millisecond,
		Compress:      true,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()

	m, err := DialMux(srv.UplinkAddr(), MuxConfig{Compress: true, AckTimeout: 60 * time.Second})
	if err != nil {
		t.Fatalf("DialMux: %v", err)
	}
	defer m.Close()

	const (
		streams = 10_000
		workers = 200
	)
	clients := make([]*LogicalClient, streams)
	for i := range clients {
		if clients[i], err = m.Open(); err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
	}
	q := xpath.MustParse("/nitf")
	var (
		acked  atomic.Int64
		failed atomic.Int64
		first  atomic.Value
		wg     sync.WaitGroup
	)
	per := streams / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(batch []*LogicalClient) {
			defer wg.Done()
			for _, lc := range batch {
				if err := lc.Submit(q); err != nil {
					failed.Add(1)
					first.CompareAndSwap(nil, err)
					continue
				}
				acked.Add(1)
			}
		}(clients[w*per : (w+1)*per])
	}
	wg.Wait()

	if got := acked.Load(); got != streams {
		err, _ := first.Load().(error)
		t.Fatalf("%d/%d streams acked (%d failed, first error: %v)", got, streams, failed.Load(), err)
	}
	if m.UnknownFrames() != 0 {
		t.Errorf("mux dropped %d frames as unknown", m.UnknownFrames())
	}
	if m.Err() != nil {
		t.Errorf("mux failed: %v", m.Err())
	}
}
