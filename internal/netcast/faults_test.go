package netcast

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/netcast/chaos"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// TestRetrieveUnderChaos is the fault-tolerance acceptance test: two
// clients retrieve through proxies — one per broadcast channel — that flip
// bits (well over 1% of frames at these rates), drop bytes (truncation that
// desynchronises framing), and force-kill every live downlink twice. Both
// clients must still end up with exactly their result sets, reporting the
// recoveries in ClientStats. The K = 4 case drives the same loop's recovery
// on the index channel and on every data channel the tuner hops to.
func TestRetrieveUnderChaos(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mode     broadcast.Mode
		channels int
	}{
		{"one-tier", broadcast.OneTierMode, 1},
		{"two-tier", broadcast.TwoTierMode, 1},
		{"two-tier-k4", broadcast.TwoTierMode, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coll, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 30, Seed: 77})
			if err != nil {
				t.Fatalf("Documents: %v", err)
			}
			// Roughly one document per cycle and data channel, so a full
			// retrieval spans many cycles and both forced disconnects land
			// mid-retrieval.
			srv, err := StartServer(ServerConfig{
				Collection:    coll,
				Mode:          tc.mode,
				Channels:      tc.channels,
				CycleCapacity: max(1, tc.channels-1) * coll.TotalSize() / coll.Len(),
				CycleInterval: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("StartServer: %v", err)
			}
			defer srv.Shutdown()
			var (
				proxies []*chaos.Proxy
				addrs   []string
			)
			for ch, addr := range srv.ChannelAddrs() {
				proxy, err := chaos.NewProxy(addr, chaos.Config{
					Seed:     int64(1 + ch),
					FlipProb: 2e-4, // ~1 flip per 5 kB: most cycles corrupted somewhere
					DropProb: 2e-5, // occasional lost bytes: frames truncated, framing lost
				})
				if err != nil {
					t.Fatalf("NewProxy: %v", err)
				}
				defer proxy.Close()
				proxies = append(proxies, proxy)
				addrs = append(addrs, proxy.Addr())
			}
			liveConns := func() (n int) {
				for _, p := range proxies {
					n += p.LiveConns()
				}
				return n
			}
			killAll := func() (n int) {
				for _, p := range proxies {
					n += p.KillAll()
				}
				return n
			}

			queries := []xpath.Path{
				xpath.MustParse("/nitf"), // every document: the longest retrieval
				xpath.MustParse("/nitf//p"),
			}
			clients := make([]*Client, len(queries))
			for i, q := range queries {
				cl, err := DialChannels(srv.UplinkAddr(), addrs, core.SizeModel{})
				if err != nil {
					t.Fatalf("Dial client %d: %v", i, err)
				}
				defer cl.Close()
				if err := cl.Submit(q); err != nil {
					t.Fatalf("Submit client %d: %v", i, err)
				}
				clients[i] = cl
			}
			links := len(clients) * len(proxies)

			// Forced disconnect #1: every downlink dies before the first
			// frame is read, so each stream's very first read must recover.
			waitFor(t, "the proxies to see every dialed downlink", func() bool { return liveConns() >= links })
			if n := killAll(); n != links {
				t.Fatalf("first kill hit %d links, want %d", n, links)
			}

			// Generous deadline: at these fault rates most cycles are corrupted
			// somewhere, so a loaded machine (CI, parallel packages) can need
			// hundreds of 5 ms cycles to deliver every wanted document.
			ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
			defer cancel()
			type outcome struct {
				docs  []*xmldoc.Document
				stats ClientStats
				err   error
			}
			results := make([]chan outcome, len(clients))
			for i := range clients {
				results[i] = make(chan outcome, 1)
				go func(cl *Client, q xpath.Path, ch chan<- outcome) {
					docs, stats, err := cl.Retrieve(ctx, q)
					ch <- outcome{docs: docs, stats: stats, err: err}
				}(clients[i], queries[i], results[i])
			}

			// Forced disconnect #2: once every client has re-established its
			// index-channel downlink, kill every live link again mid-retrieval.
			// (A data channel is only redialed when the tuner next hops to it.)
			waitFor(t, "the clients to reconnect after the first kill", func() bool { return proxies[0].LiveConns() >= len(clients) })
			if killAll() == 0 {
				t.Fatal("second kill found no live links")
			}

			for i, q := range queries {
				o := <-results[i]
				if o.err != nil {
					t.Fatalf("client %d Retrieve: %v (stats %+v)", i, o.err, o.stats)
				}
				checkRetrieved(t, coll, o.docs, q.MatchingDocs(coll))
				if o.stats.Reconnects < 2 {
					t.Errorf("client %d Reconnects = %d, want >= 2 (stats %+v)", i, o.stats.Reconnects, o.stats)
				}
				if o.stats.Resyncs < 1 {
					t.Errorf("client %d Resyncs = %d, want >= 1 (stats %+v)", i, o.stats.Resyncs, o.stats)
				}
				if o.stats.Cycles < 1 {
					t.Errorf("client %d stats = %+v", i, o.stats)
				}
			}
			var st chaos.Stats
			for _, p := range proxies {
				ps := p.Stats()
				st.BitFlips += ps.BitFlips
				st.Drops += ps.Drops
				st.Kills += ps.Kills
			}
			if st.BitFlips == 0 || st.Drops == 0 || st.Kills < 2 {
				t.Errorf("proxies injected too little chaos: %+v", st)
			}
		})
	}
}

// cycleFrames encodes one complete broadcast cycle the way the server does,
// returning the frame sequence (head, index[, second tier], docs).
func cycleFrames(t *testing.T, b *broadcast.Builder, mode broadcast.Mode, num int64, queries []xpath.Path, plan []xmldoc.DocID) []airFrame {
	t.Helper()
	cy, err := b.BuildCycle(num, 0, queries, plan)
	if err != nil {
		t.Fatalf("BuildCycle: %v", err)
	}
	headBytes, err := cy.Head.Append(nil)
	if err != nil {
		t.Fatalf("Head.Append: %v", err)
	}
	segs, err := b.AppendEncoded(nil, cy)
	if err != nil {
		t.Fatalf("AppendEncoded: %v", err)
	}
	n := cy.IndexStreamBytes()
	frames := []airFrame{{t: wire.FrameCycleHead, payload: headBytes}, {t: wire.FrameIndex, payload: segs[:n]}}
	if mode == broadcast.TwoTierMode {
		frames = append(frames, airFrame{t: wire.FrameSecondTier, payload: segs[n:]})
	}
	for _, p := range cy.Docs {
		doc := b.DocByID(p.ID)
		payload := make([]byte, 2, 2+doc.Size())
		payload[0] = byte(p.ID)
		payload[1] = byte(p.ID >> 8)
		payload = append(payload, doc.Marshal()...)
		frames = append(frames, airFrame{t: wire.FrameDoc, payload: payload})
	}
	return frames
}

// pipeClient builds a downlink-only client fed by a synthetic frame stream.
// The writer loops the given frame schedule until the client hangs up.
func pipeClient(t *testing.T, prelude, cycle []airFrame) *Client {
	t.Helper()
	srvEnd, cliEnd := net.Pipe()
	t.Cleanup(func() { srvEnd.Close(); cliEnd.Close() })
	write := func(f airFrame) bool {
		b, err := wire.AppendFrame(nil, f.t, f.payload)
		if err == nil {
			_, err = srvEnd.Write(b)
		}
		return err == nil
	}
	go func() {
		for _, f := range prelude {
			if !write(f) {
				return
			}
		}
		for {
			for _, f := range cycle {
				if !write(f) {
					return
				}
			}
		}
	}()
	return &Client{model: core.DefaultSizeModel(), chans: []*chanStream{{conn: cliEnd, src: newFrameSource(cliEnd)}}}
}

// TestMidStreamJoin: a client whose subscription starts between a cycle
// head and its document frames (it sees index, second-tier and doc frames
// with no preceding head) must doze to the next cycle head and still
// retrieve correctly — the !inCycle arms of the access protocol.
func TestMidStreamJoin(t *testing.T) {
	for _, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
		t.Run(mode.String(), func(t *testing.T) {
			coll := testCollection(t)
			b, err := broadcast.NewBuilder(coll, core.DefaultSizeModel(), mode)
			if err != nil {
				t.Fatalf("NewBuilder: %v", err)
			}
			q := xpath.MustParse("/nitf/body/body.content/block")
			want := q.MatchingDocs(coll)
			if len(want) == 0 {
				t.Fatal("test query matches nothing")
			}
			full := cycleFrames(t, b, mode, 0, []xpath.Path{q}, want)
			// The join point is mid-cycle: everything after the head.
			tail := full[1:]

			cl := pipeClient(t, tail, full)
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			docs, stats, err := cl.Retrieve(ctx, q)
			if err != nil {
				t.Fatalf("Retrieve: %v (stats %+v)", err, stats)
			}
			ids := make([]xmldoc.DocID, len(docs))
			for i, d := range docs {
				ids[i] = d.ID
			}
			if !reflect.DeepEqual(ids, want) {
				t.Errorf("retrieved %v, want %v", ids, want)
			}
			if stats.DozeBytes == 0 {
				t.Error("mid-cycle frames before the first head were not dozed")
			}
			if stats.Resyncs != 0 || stats.Reconnects != 0 {
				t.Errorf("clean join counted recoveries: %+v", stats)
			}
		})
	}
}

// TestZeroRemainingReturnsImmediately: when the decoded index shows the
// query has nothing left to fetch, Retrieve must return right away instead
// of spinning on document frames until the context deadline.
func TestZeroRemainingReturnsImmediately(t *testing.T) {
	coll := testCollection(t)
	b, err := broadcast.NewBuilder(coll, core.DefaultSizeModel(), broadcast.TwoTierMode)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	// The cycle's index covers a different query, so navigating ours finds
	// no documents: remaining is empty as soon as the index decodes.
	other := xpath.MustParse("/nitf/head/title")
	full := cycleFrames(t, b, broadcast.TwoTierMode, 0, []xpath.Path{other}, other.MatchingDocs(coll))

	cl := pipeClient(t, nil, full)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	docs, stats, err := cl.Retrieve(ctx, xpath.MustParse("/nitf/body/absent"))
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if len(docs) != 0 {
		t.Errorf("retrieved %d docs, want 0", len(docs))
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("zero-result retrieve took %v — hung until the deadline", elapsed)
	}
	if stats.Cycles != 1 {
		t.Errorf("stats = %+v, want exactly one cycle listened", stats)
	}
}

// TestSubmitTimesOutOnStalledServer: a server that accepts the query but
// never acks must not hang Submit forever.
func TestSubmitTimesOutOnStalledServer(t *testing.T) {
	// The stub grants the hello, then swallows every query unanswered.
	upAddr := stubUplink(t, 1, func(sc *stubConn) {
		for {
			if _, _, _, err := sc.next(); err != nil {
				return
			}
		}
	})
	cl, err := Dial(upAddr, muteListener(t), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	cl.AckTimeout = 200 * time.Millisecond
	start := time.Now()
	if err := cl.Submit(xpath.MustParse("/nitf")); err == nil {
		t.Fatal("Submit succeeded against a mute server")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Submit took %v to fail, want ~200ms", elapsed)
	}
}

// TestServerDropsStalledSubscriber: a subscriber that never reads must be
// dropped once its queue overflows — without stalling an active client,
// which previously shared the stalled connection's 2 s write deadline on
// every frame.
func TestServerDropsStalledSubscriber(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:      coll,
		CycleCapacity:   3 * coll.TotalSize() / coll.Len(),
		CycleInterval:   2 * time.Millisecond,
		SubscriberQueue: 3, // small queue so the stall is detected quickly
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()

	// The stalled subscriber: subscribes, never reads a byte.
	stalled, err := net.Dial("tcp", srv.BroadcastAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// A live client must still retrieve at full speed.
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	q := xpath.MustParse("/nitf/body/body.content/block")
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	docs, _, err := cl.Retrieve(ctx, q)
	if err != nil {
		t.Fatalf("Retrieve alongside stalled subscriber: %v", err)
	}
	ids := make([]xmldoc.DocID, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	if want := q.MatchingDocs(coll); !reflect.DeepEqual(ids, want) {
		t.Errorf("retrieved %v, want %v", ids, want)
	}

	// Keep cycles flowing until the server gives up on the stalled
	// subscriber: its connection must be closed (queue overflow or write
	// deadline), observed as a read error once the buffered bytes drain.
	feederStop := make(chan struct{})
	feederDone := make(chan struct{})
	defer func() { close(feederStop); <-feederDone }()
	go func() {
		defer close(feederDone)
		for {
			select {
			case <-feederStop:
				return
			default:
			}
			if cl.Submit(q) != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// Detected by write probes: once the server closes the connection (with
	// unread data queued, so a reset, not a graceful FIN), writes fail.
	// Reading would un-stall the subscriber and defeat the test.
	deadline := time.Now().Add(25 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := stalled.Write([]byte{0}); err != nil {
			return // dropped, as required
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("stalled subscriber was never dropped")
}

// TestUplinkIdleTimeout: a dead uplink connection is reaped instead of
// pinning a server goroutine forever.
func TestUplinkIdleTimeout(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:        coll,
		CycleCapacity:     50_000,
		UplinkIdleTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()
	conn, err := net.Dial("tcp", srv.UplinkAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing; the server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle uplink was not closed")
	}
}
