package netcast

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/netcast/transport"
	"repro/internal/schedule"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// onLoop runs f on srv's cycle loop, the one goroutine that may touch its
// ledger and engine, and fails the test, on the test's goroutine, if f fails.
func onLoop(t testing.TB, srv *Server, f func() error) {
	t.Helper()
	if err := srv.do(func(error) error { return f() }); err != nil {
		t.Fatal(err)
	}
}

// pendingOf copies srv's pending set, read on its cycle loop.
func pendingOf(t *testing.T, srv *Server) (pending []engine.Pending) {
	t.Helper()
	onLoop(t, srv, func() error { pending = srv.ledger.Pending(); return nil })
	return pending
}

// TestFanOutFramesOnce: every subscriber of a channel receives the same
// bytes, and they are exactly the frames' wire form — wire.AppendFrame's
// output on a bare server, the hello plus one transport envelope per frame on
// a compressing one. The frames are queued as one batch directly on an idle
// server (nothing pending, so the cycle loop never queues one). The cycle
// cases air one hand-driven cycle to eight subscribers instead: every stream
// is the hello, when compressing, then the cycle's frames in airCycle order
// and nothing else; at K = 2 each channel's subscribers get exactly that
// channel's share.
func TestFanOutFramesOnce(t *testing.T) {
	frames := []airFrame{
		{t: wire.FrameCycleHead, payload: []byte("head")},
		{t: wire.FrameIndex, payload: bytes.Repeat([]byte("index segment "), 40)},
		{t: wire.FrameSecondTier, payload: nil},
		{t: wire.FrameDoc, payload: bytes.Repeat([]byte{7, 0, '<', 'a', '/', '>'}, 500)},
	}
	for _, compress := range []bool{false, true} {
		name := map[bool]string{false: "bare", true: "compressed"}[compress]
		t.Run(name, func(t *testing.T) {
			srv, err := StartServer(ServerConfig{Collection: testCollection(t), CycleCapacity: 50_000, Compress: compress})
			if err != nil {
				t.Fatalf("StartServer: %v", err)
			}
			defer srv.Shutdown()

			want := wireStream(t, frames, compress)
			const subscribers = 8
			conns := make([]net.Conn, subscribers)
			for i := range conns {
				if conns[i], err = net.Dial("tcp", srv.BroadcastAddr()); err != nil {
					t.Fatal(err)
				}
				defer conns[i].Close()
			}
			waitFor(t, "subscribers to register", func() bool { return srv.Stats().Subscribers == subscribers })
			_, batch := wireFrames(t, frames, compress)
			srv.enqueue(0, batch)
			for i, conn := range conns {
				got := make([]byte, len(want))
				_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				if _, err := io.ReadFull(conn, got); err != nil {
					t.Fatalf("subscriber %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("subscriber %d received a stream that differs from the frames' wire form", i)
				}
			}
		})
		t.Run(name+"/cycle", func(t *testing.T) {
			fanOutCycle(t, ServerConfig{Collection: testCollection(t), Compress: compress},
				[][]wire.FrameType{{wire.FrameCycleHead, wire.FrameIndex, wire.FrameSecondTier}})
		})
	}
	t.Run("k2/cycle", func(t *testing.T) {
		fanOutCycle(t, ServerConfig{Collection: testCollection(t), Channels: 2}, [][]wire.FrameType{
			{wire.FrameChannelHead, wire.FrameCycleHead, wire.FrameChannelDir, wire.FrameIndex},
			{wire.FrameChannelHead, wire.FrameSecondTier},
		})
	})
}

// wireStream is what a subscriber receives for frames: the hello when
// compressing, then each frame's wire form.
func wireStream(t *testing.T, frames []airFrame, compress bool) []byte {
	t.Helper()
	hello, batch := wireFrames(t, frames, compress)
	return slices.Concat(append([][]byte{hello}, batch...)...)
}

// wireFrames is the hello a subscriber of a compressing server receives (nil
// for a bare one) and the wire form of each frame: the frame itself, or the
// transport envelope a fresh encoder makes of it.
func wireFrames(t *testing.T, frames []airFrame, compress bool) (hello []byte, batch net.Buffers) {
	t.Helper()
	enc := transport.NewEncoder(true, 0)
	if compress {
		var hb bytes.Buffer
		if err := transport.WriteHello(&hb, transport.Hello{Compress: true}); err != nil {
			t.Fatal(err)
		}
		hello = hb.Bytes()
	}
	for _, f := range frames {
		frame, err := wire.AppendFrame(nil, f.t, f.payload)
		if err != nil {
			t.Fatal(err)
		}
		if compress {
			if frame, err = enc.Encode(transport.NoStream, frame); err != nil {
				t.Fatal(err)
			}
		}
		batch = append(batch, frame)
	}
	return hello, batch
}

// fanOutCycle airs one hand-driven cycle to four subscribers per channel and
// checks every stream: the same bytes on each of a channel's subscribers,
// and those bytes the wire form of the channel's head frames (heads[c], in
// airCycle order) followed by as many documents as its head announces.
func fanOutCycle(t *testing.T, cfg ServerConfig, heads [][]wire.FrameType) {
	h := handDrive(t, cfg, 4*len(heads))
	h.cycle(t, "/nitf")
	streams := h.ended(t)
	for c, want := range heads {
		stream := streams[c]
		for i := c + len(heads); i < len(streams); i += len(heads) {
			if !bytes.Equal(streams[i], stream) {
				t.Errorf("channel %d: subscriber %d received a stream that differs from subscriber %d's", c, i, c)
			}
		}
		fs := newFrameSource(bytes.NewReader(stream))
		var frames []airFrame
		for {
			fr, err := fs.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("channel %d, frame %d: %v", c, len(frames), err)
			}
			frames = append(frames, airFrame{t: fr.t, payload: bytes.Clone(fr.payload)})
		}
		if !bytes.Equal(wireStream(t, frames, cfg.Compress), stream) {
			t.Errorf("channel %d: the stream is not the hello and its frames' wire form", c)
		}
		if len(frames) < len(want) {
			t.Fatalf("channel %d: %d frames, want at least %d", c, len(frames), len(want))
		}
		var docs int
		switch head := frames[0]; head.t {
		case wire.FrameCycleHead:
			ch, err := wire.DecodeCycleHead(head.payload)
			if err != nil {
				t.Fatal(err)
			}
			docs = int(ch.NumDocs)
		case wire.FrameChannelHead:
			ch, err := wire.DecodeChannelHead(head.payload)
			if err != nil {
				t.Fatal(err)
			}
			if int(ch.Channel) != c {
				t.Errorf("channel %d airs channel %d's head", c, ch.Channel)
			}
			if ch.Role == wire.ChannelRoleData {
				docs = int(ch.NumDocs)
			}
		}
		if c == len(heads)-1 && docs == 0 {
			t.Fatalf("channel %d airs no documents; the test needs some", c)
		}
		for i := 0; i < docs; i++ {
			want = append(want, wire.FrameDoc)
		}
		got := make([]wire.FrameType, len(frames))
		for i, f := range frames {
			got[i] = f.t
		}
		if !slices.Equal(got, want) {
			t.Errorf("channel %d aired frames %v, want %v", c, got, want)
		}
	}
}

// TestEnqueueEvictsFullQueue: a subscriber whose writer has stopped keeps its
// place while its queue holds SubscriberQueue cycles and is dropped on the
// next one — its queue closed behind the cycles it holds, its connection
// closed and the eviction counted.
func TestEnqueueEvictsFullQueue(t *testing.T) {
	srv, err := StartServer(ServerConfig{Collection: testCollection(t), CycleCapacity: 50_000, CycleInterval: time.Hour})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()
	conn, peer := net.Pipe()
	defer peer.Close()
	n := srv.cfg.SubscriberQueue
	sub := &subscriber{conn: conn, ch: make(chan net.Buffers, n)}
	srv.mu.Lock()
	srv.subs[sub] = struct{}{}
	srv.mu.Unlock()

	batch := net.Buffers{[]byte("one cycle")}
	for i := 0; i < n; i++ {
		srv.enqueue(0, batch)
	}
	if st := srv.Stats(); st.Subscribers != 1 || st.SubscribersDropped != 0 {
		t.Fatalf("after %d cycles: %d subscribers, %d dropped; want 1 and 0", n, st.Subscribers, st.SubscribersDropped)
	}
	srv.enqueue(0, batch)
	if st := srv.Stats(); st.Subscribers != 0 || st.SubscribersDropped != 1 {
		t.Fatalf("after %d cycles: %d subscribers, %d dropped; want 0 and 1", n+1, st.Subscribers, st.SubscribersDropped)
	}
	for i := 0; i < n; i++ {
		if _, ok := <-sub.ch; !ok {
			t.Fatalf("queue closed after %d of its %d cycles", i, n)
		}
	}
	if _, ok := <-sub.ch; ok {
		t.Error("the dropped subscriber's queue is still open")
	}
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read from the dropped subscriber's connection = %v, want EOF", err)
	}
}

// TestSubscriberWriteAllocFree: a warm subscriber writes a many-part batch to
// a TCP connection without allocating. WriteTo consumes the slice it is
// called on; handed the writer's reused copy itself, the copy would lose its
// capacity and every batch would allocate it anew.
func TestSubscriberWriteAllocFree(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, peer)
	}()
	defer func() {
		conn.Close()
		<-drained
		peer.Close()
	}()

	var batch net.Buffers
	for i := 0; i < 8; i++ {
		batch = append(batch, []byte("header"), bytes.Repeat([]byte{byte(i)}, 1000*i), []byte("crc"))
	}
	sub := &subscriber{conn: conn}
	if err := sub.write(batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := sub.write(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm batch write allocates %.1f times, want 0", allocs)
	}
}

// TestRemoveDocumentDuringCycles: removing documents while cycles assemble
// must never let a cycle size or encode a document the engine has already
// dropped. The pending set is kept deep (every request wants every document)
// so the cycle loop spends most of its time between its pending-set snapshot
// and the engine's assembly — the window a removal used to slip into. Some of
// the removed IDs come straight back with different text: whatever the server
// cached for the old document (its payload and, when compressing, the
// envelope beside it) must be gone, or a retrieval gets the old bytes under
// the new document's ID.
func TestRemoveDocumentDuringCycles(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := map[bool]string{false: "bare", true: "compressed"}[compress]
		t.Run(name, func(t *testing.T) { removeDocumentDuringCycles(t, compress) })
	}
}

func removeDocumentDuringCycles(t *testing.T, compress bool) {
	coll, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 60, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		CycleCapacity: coll.TotalSize() / coll.Len(),
		CycleInterval: time.Millisecond,
		Compress:      compress,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()

	stop := make(chan struct{})
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if srv.Pending() < 400 {
				_, _, _ = srv.submit("/nitf")
			} else {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	defer func() {
		close(stop)
		feeder.Wait()
	}()
	waitFor(t, "a deep pending set", func() bool { return srv.Pending() >= 300 })
	ids := xpath.MustParse("/nitf").MatchingDocs(coll)
	var swapped []*xmldoc.Document
	for i, id := range ids[:50] {
		if err := srv.RemoveDocument(id); err != nil {
			t.Fatalf("RemoveDocument(%d): %v", id, err)
		}
		if i%5 == 0 {
			// Same ID, other content, while the old document may still be in
			// the cycle being aired.
			d := xmldoc.NewDocument(id, xmldoc.El("nitf",
				xmldoc.TextEl("swapped", strings.Repeat(fmt.Sprintf("(new text of document %d)", id), 20))))
			if err := srv.AddDocument(d); err != nil {
				t.Fatalf("AddDocument(%d) after its removal: %v", id, err)
			}
			swapped = append(swapped, d)
		}
		time.Sleep(time.Millisecond)
	}
	// The feeder is still submitting, so a live loop has cycles to air.
	before := srv.Cycles()
	waitFor(t, "cycles to keep airing after the removals", func() bool { return srv.Cycles() > before })

	// Every re-added document is retrieved as its new self.
	fresh, err := xmldoc.NewCollection(swapped)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	q := xpath.MustParse("/nitf/swapped")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for round := 0; round < 2; round++ {
		if err := cl.Submit(q); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		docs, _, err := cl.Retrieve(ctx, q)
		if err != nil {
			t.Fatalf("Retrieve: %v", err)
		}
		checkRetrieved(t, fresh, docs, q.MatchingDocs(fresh))
	}

	if st := srv.Stats(); st.CycleError != "" {
		t.Fatalf("cycle loop died: %s", st.CycleError)
	}
	if got, want := srv.NumDocs(), coll.Len()-50+len(swapped); got != want {
		t.Errorf("NumDocs = %d, want %d", got, want)
	}
}

// TestShutdownWithSubscribersArriving: Shutdown must return even when
// broadcast connections are being accepted while it tears down. A connection
// accepted after the teardown snapshotted the subscriber set used to get a
// writer goroutine nobody would ever finish, and Shutdown waited on it
// forever.
func TestShutdownWithSubscribersArriving(t *testing.T) {
	coll := testCollection(t)
	for trial := 0; trial < 60; trial++ {
		srv, err := StartServer(ServerConfig{Collection: coll, CycleCapacity: 50_000})
		if err != nil {
			t.Fatalf("StartServer: %v", err)
		}
		addr := srv.BroadcastAddr()
		var (
			dialers sync.WaitGroup
			dialed  atomic.Int64
			mu      sync.Mutex
			conns   []net.Conn
		)
		for d := 0; d < 4; d++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					conn, err := net.Dial("tcp", addr)
					if err != nil {
						return // the listener is gone
					}
					dialed.Add(1)
					mu.Lock()
					conns = append(conns, conn)
					mu.Unlock()
				}
			}()
		}
		waitFor(t, "the first subscribers", func() bool { return dialed.Load() >= 8 })
		done := make(chan struct{})
		go func() { srv.Shutdown(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("trial %d: Shutdown hung with subscribers still arriving", trial)
		}
		dialers.Wait()
		for _, conn := range conns {
			conn.Close()
		}
	}
}

// emptyPlanner is a scheduler that can be switched to planning nothing,
// which the engine reports as a fatal assembly error.
type emptyPlanner struct {
	schedule.LeeLo
	broken atomic.Bool
}

func (p *emptyPlanner) PlanIndexed(x *schedule.DemandIndex, capacity int, now int64) []xmldoc.DocID {
	if p.broken.Load() {
		return nil
	}
	return p.LeeLo.PlanIndexed(x, capacity, now)
}

// TestFatalCycleErrorIsSurfaced: a fatal cycle-assembly error stops the
// cycle loop, and must not do so silently — Stats names the error and later
// submissions are refused with it instead of being acked into a pending set
// nothing will ever air.
func TestFatalCycleErrorIsSurfaced(t *testing.T) {
	planner := &emptyPlanner{}
	srv, err := StartServer(ServerConfig{
		Collection:    testCollection(t),
		Scheduler:     planner,
		CycleCapacity: 50_000,
		CycleInterval: 2 * time.Millisecond,
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
	if st := srv.Stats(); st.CycleError != "" {
		t.Fatalf("healthy server reports CycleError %q", st.CycleError)
	}
	planner.broken.Store(true)
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit before the failure: %v", err)
	}
	waitFor(t, "the cycle loop to report its error", func() bool { return srv.Stats().CycleError != "" })
	if st := srv.Stats(); !strings.Contains(st.CycleError, "empty cycle") {
		t.Errorf("CycleError = %q, want the engine's empty-cycle error", st.CycleError)
	}
	err = cl.Submit(q)
	if err == nil || !strings.Contains(err.Error(), "broadcast stopped") || !strings.Contains(err.Error(), "empty cycle") {
		t.Errorf("Submit after the failure = %v, want a refusal naming the stopped broadcast and its cause", err)
	}
}
