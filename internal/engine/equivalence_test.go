package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/netcast"
	"repro/internal/netcast/transport"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// capturedCycle is one cycle's air program, deep-copied out of the
// simulator: each channel's frames, concatenated in air order.
type capturedCycle struct {
	number   int64
	duration int64 // sim.CycleStats.DurationBytes
	air      [][]byte
}

// captureSink returns a Config.CycleSink that deep-copies every cycle's
// frames into out.
func captureSink(out *[]capturedCycle) func(*engine.Cycle, *engine.Encoded) {
	return func(cy *engine.Cycle, enc *engine.Encoded) {
		cc := capturedCycle{number: cy.Number}
		for _, frames := range enc.Frames {
			cc.air = append(cc.air, slices.Concat(frames...))
		}
		*out = append(*out, cc)
	}
}

// TestSimNetcastCycleEquivalence drives the same collection and query set
// through both consumers of the shared engine — the discrete-event simulator
// and the networked broadcast server — and asserts they put byte-identical
// cycles on the air. All requests arrive before the first cycle, and the
// default LeeLo policy plans from remaining-document sets only, so the two
// drivers' differing clock units (byte-time vs cycle number) must not change
// a single encoded byte.
func TestSimNetcastCycleEquivalence(t *testing.T) {
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 8, MaxDepth: 5, WildcardProb: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	capacity := c.TotalSize() / 4 // force a multi-cycle broadcast

	simCycles, _ := runSimCapture(t, sim.Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacity}, queries)
	if len(simCycles) < 2 {
		t.Fatalf("fixture produced %d cycles; want a multi-cycle run", len(simCycles))
	}
	stream, _ := runNetcastCapture(t, netcast.ServerConfig{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacity}, queries, len(simCycles))
	compareCycles(t, simCycles, [][]byte{stream})
}

// compareCycles asserts that each channel's netcast stream is the
// simulator's frames for that channel, cycle after cycle, and nothing more.
func compareCycles(t *testing.T, simCycles []capturedCycle, streams [][]byte) {
	t.Helper()
	for ch, stream := range streams {
		for i, want := range simCycles {
			w := want.air[ch]
			if len(stream) < len(w) || !bytes.Equal(stream[:len(w)], w) {
				t.Fatalf("channel %d, cycle %d (number %d): netcast did not air the simulator's %d bytes", ch, i, want.number, len(w))
			}
			stream = stream[len(w):]
		}
		if len(stream) > 0 {
			t.Errorf("channel %d: netcast aired %d bytes after the sim's pending set drained", ch, len(stream))
		}
	}
}

// TestSimNetcastCompressedAirEquivalence: a compressed simulation times the
// frames a compressing server sends. At K = 1, for every index organisation,
// each cycle's DurationBytes is the bytes the netcast capture shows that cycle
// aired — split at the cycle heads of the capture itself — and those bytes
// are the simulator's frames. On the bare wire and compressed alike, both
// drivers' clients read those frames with one reader: a netcast client
// covered from the first cycle tunes exactly the simulated client's index
// and document tuning.
func TestSimNetcastCompressedAirEquivalence(t *testing.T) {
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 8, MaxDepth: 5, WildcardProb: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	capacity := c.TotalSize() / 4 // force a multi-cycle broadcast
	for _, org := range []struct {
		name     string
		mode     broadcast.Mode
		enc      core.IndexEncoding
		compress bool
	}{
		{"one-tier", broadcast.OneTierMode, core.EncodingNode, true},
		{"two-tier-node", broadcast.TwoTierMode, core.EncodingNode, true},
		{"two-tier-succinct", broadcast.TwoTierMode, core.EncodingSuccinct, true},
		{"one-tier-bare", broadcast.OneTierMode, core.EncodingNode, false},
		{"two-tier-node-bare", broadcast.TwoTierMode, core.EncodingNode, false},
		{"two-tier-succinct-bare", broadcast.TwoTierMode, core.EncodingSuccinct, false},
	} {
		t.Run(org.name, func(t *testing.T) {
			simCycles, res := runSimCapture(t, sim.Config{Collection: c, Mode: org.mode, IndexEncoding: org.enc, CycleCapacity: capacity, Compress: org.compress}, queries)
			if len(simCycles) < 2 {
				t.Fatalf("fixture produced %d cycles; want a multi-cycle run", len(simCycles))
			}
			stream, tuning := runNetcastCapture(t, netcast.ServerConfig{Collection: c, Mode: org.mode, IndexEncoding: org.enc, CycleCapacity: capacity, Compress: org.compress},
				queries, len(simCycles))
			covered := 0
			for i, tb := range tuning {
				if tb < 0 {
					continue // acked past the first cycle: not the simulated client
				}
				covered++
				if cl := res.Clients[i]; tb != cl.IndexTuningBytes+cl.DocTuningBytes {
					t.Errorf("%s: netcast tuned %d B, the simulator %d B index + %d B documents", queries[i], tb, cl.IndexTuningBytes, cl.DocTuningBytes)
				}
			}
			if covered < len(queries)/2 {
				t.Errorf("only %d of %d netcast clients were covered from the first cycle", covered, len(queries))
			}
			if org.compress {
				aired := airedCycles(t, stream)
				if len(aired) != len(simCycles) {
					t.Fatalf("netcast aired %d cycles, sim %d", len(aired), len(simCycles))
				}
				for i, cc := range simCycles {
					if cc.duration != int64(len(aired[i])) {
						t.Errorf("cycle %d: sim times %d B on air, netcast aired %d B", i, cc.duration, len(aired[i]))
					}
				}
			}
			compareCycles(t, simCycles, [][]byte{stream})
		})
	}
}

// airedCycles splits a compressed downlink stream at its cycle heads.
func airedCycles(t *testing.T, stream []byte) [][]byte {
	t.Helper()
	tr := transport.NewReader(bytes.NewReader(stream))
	var cycles [][]byte
	start, off := 0, 0
	for {
		fr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("envelope at byte %d: %v", off, err)
		}
		if ft, _, err := wire.ReadFrame(bytes.NewReader(fr.Inner)); err != nil {
			t.Fatalf("frame at byte %d: %v", off, err)
		} else if ft == wire.FrameCycleHead && off > 0 {
			cycles = append(cycles, stream[start:off])
			start = off
		}
		off += fr.Wire
	}
	return append(cycles, stream[start:off])
}

// TestSimNetcastStaggeredEquivalence runs the staggered-arrival equivalence
// check (see testStaggeredEquivalence) on the classic one-channel stream.
func TestSimNetcastStaggeredEquivalence(t *testing.T) {
	t.Run("leelo", func(t *testing.T) {
		testStaggeredEquivalence(t, 1)
	})
}

// TestSimNetcastMultichannelEquivalence extends the staggered-arrival
// equivalence suite across channel counts: for every K the simulator's
// per-channel segments (index, channel directory, second-tier stripes and
// striped documents) must be byte-identical to what the server's K broadcast
// listeners put on their wires. K=1 pins the degenerate case to the classic
// v2 stream.
func TestSimNetcastMultichannelEquivalence(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			testStaggeredEquivalence(t, k)
		})
	}
}

// testStaggeredEquivalence extends the equivalence check to staggered
// arrivals, pinning the mapping between the two drivers' clocks: the
// simulator admits a request into cycle k when its byte-time arrival is at
// most cycle k's start, and the server admits it into cycle k when the
// submission lands while k-1 cycles have been broadcast (the ack's covered
// cycle number is exactly k). A query wave submitted at byte-time Start(k) in
// the sim and acked with CoveredFrom k over the wire must therefore produce
// byte-identical cycles.
//
// The byte-time arrivals are constructed inductively so the correspondence is
// exact rather than approximate: wave w's arrival is cycle w's start in a
// simulator run of waves 0..w-1 — which is unchanged by adding wave w, since
// wave w only joins at cycle w.
//
// Both drivers run the default LeeLo policy, which plans from
// remaining-document sets only, so the simulator's byte-time clock and the
// server's cycle numbers schedule alike.
func testStaggeredEquivalence(t *testing.T, channels int) {
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := gen.Queries(c, gen.QueryConfig{NumQueries: 24, MaxDepth: 5, WildcardProb: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The server acks empty-result queries with an error instead of
	// registering them, so the staggered waves use only queries both drivers
	// admit.
	const waveSize, numWaves = 3, 3
	var queries []xpath.Path
	for _, q := range raw {
		if len(q.MatchingDocs(c)) > 0 {
			queries = append(queries, q)
		}
	}
	if len(queries) < waveSize*numWaves {
		t.Fatalf("fixture yielded %d non-empty queries, want %d", len(queries), waveSize*numWaves)
	}
	queries = queries[:waveSize*numWaves]
	capacity := c.TotalSize() / 4 // force a multi-cycle broadcast

	// Inductively derive each wave's byte-time arrival from the prefix run.
	arrivals := make([]int64, len(queries))
	for w := 1; w < numWaves; w++ {
		n := w * waveSize
		_, stats := runStaggeredSim(t, c, queries[:n], arrivals[:n], capacity, channels)
		if len(stats) <= w {
			t.Fatalf("waves 0..%d drained in %d cycles; fixture cannot stagger wave %d", w-1, len(stats), w)
		}
		for i := n; i < n+waveSize; i++ {
			arrivals[i] = stats[w].Start
		}
	}

	simCycles, _ := runStaggeredSim(t, c, queries, arrivals, capacity, channels)
	if len(simCycles) <= numWaves {
		t.Fatalf("staggered fixture produced %d cycles; want more than %d", len(simCycles), numWaves)
	}
	compareCycles(t, simCycles, runStaggeredNetcast(t, c, queries, waveSize, capacity, len(simCycles), channels))
}

// runStaggeredSim runs the simulator with per-request byte-time arrivals and
// returns the captured cycles alongside their stats (for Start times).
func runStaggeredSim(t *testing.T, c *xmldoc.Collection, queries []xpath.Path, arrivals []int64, capacity int, channels int) ([]capturedCycle, []sim.CycleStats) {
	t.Helper()
	reqs := make([]sim.ClientRequest, 0, len(queries))
	for i, q := range queries {
		reqs = append(reqs, sim.ClientRequest{Query: q, Arrival: arrivals[i]})
	}
	var out []capturedCycle
	res, err := sim.Run(sim.Config{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		Channels:      channels,
		CycleCapacity: capacity,
		Requests:      reqs,
		CycleSink:     captureSink(&out),
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, res.Cycles
}

// runStaggeredNetcast submits the queries in waves of waveSize, holding each
// wave until the server has broadcast exactly one cycle per earlier wave, and
// asserts every ack's covered cycle equals the wave number — the explicit
// cycle-number half of the arrival-clock mapping.
func runStaggeredNetcast(t *testing.T, c *xmldoc.Collection, queries []xpath.Path, waveSize, capacity, wantCycles int, channels int) [][]byte {
	t.Helper()
	srv, err := netcast.StartServer(netcast.ServerConfig{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		Channels:      channels,
		CycleCapacity: capacity,
		CycleInterval: 250 * time.Millisecond, // wide enough to land a whole wave between ticks
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	addrs := srv.ChannelAddrs()
	bufs := make([]bytes.Buffer, len(addrs))
	recDone := make(chan error, len(addrs))
	for i, addr := range addrs {
		go func(i int, addr string) {
			_, err := netcast.Record(ctx, addr, wantCycles+1, &bufs[i])
			recDone <- err
		}(i, addr)
	}
	waitFor(t, ctx, "recorder subscriptions", func() bool { return srv.Stats().Subscribers >= len(addrs) })

	cl, err := netcast.Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, q := range queries {
		wave := i / waveSize
		if i%waveSize == 0 && wave > 0 {
			waitFor(t, ctx, "the next wave's cycle", func() bool { return srv.Stats().Cycles >= int64(wave) })
		}
		if err := cl.Submit(q); err != nil {
			t.Fatalf("submit %s: %v", q, err)
		}
		if got := cl.CoveredFrom(); got != int64(wave) {
			t.Fatalf("query %d acked covered from cycle %d, want wave %d", i, got, wave)
		}
	}

	waitFor(t, ctx, "pending set to drain", func() bool {
		st := srv.Stats()
		return st.Pending == 0 && st.Cycles >= int64(wantCycles)
	})
	srv.Shutdown()
	for range addrs {
		if err := <-recDone; err == nil {
			t.Fatal("recorder finished early: server emitted more cycles than the sim")
		}
	}

	out := make([][]byte, len(addrs))
	for i := range bufs {
		out[i] = airedStream(t, bufs[i].Bytes())
	}
	return out
}

// runSimCapture runs the simulator over cfg with every request arriving at
// time 0 and deep-copies each cycle's frames through Config.CycleSink.
func runSimCapture(t *testing.T, cfg sim.Config, queries []xpath.Path) ([]capturedCycle, *sim.Result) {
	t.Helper()
	for _, q := range queries {
		cfg.Requests = append(cfg.Requests, sim.ClientRequest{Query: q, Arrival: 0})
	}
	var out []capturedCycle
	cfg.CycleSink = captureSink(&out)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		out[i].duration = res.Cycles[i].DurationBytes
	}
	return out, res
}

// runNetcastCapture boots a real server over TCP, has one client per query
// submit it (all before the first cycle fires) and retrieve it, records the
// broadcast stream and returns what it aired with each client's tuning bytes
// — -1 for a client the server acked past the first cycle.
func runNetcastCapture(t *testing.T, cfg netcast.ServerConfig, queries []xpath.Path, wantCycles int) ([]byte, []int64) {
	t.Helper()
	cfg.CycleInterval = 250 * time.Millisecond // wide enough to land every submission before cycle 0
	srv, err := netcast.StartServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	// Start the recorder and wait for its subscription so cycle 0 is captured.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var buf bytes.Buffer
	recDone := make(chan error, 1)
	go func() {
		// One more cycle than expected: the recorder only closes a cycle on the
		// next head, so it keeps reading until the shutdown below cuts the
		// stream.
		_, err := netcast.Record(ctx, srv.BroadcastAddr(), wantCycles+1, &buf)
		recDone <- err
	}()
	waitFor(t, ctx, "recorder subscription", func() bool { return srv.Stats().Subscribers >= 1 })

	clients := make([]*netcast.Client, len(queries))
	for i := range clients {
		if clients[i], err = netcast.Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{}); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	waitFor(t, ctx, "client subscriptions", func() bool { return srv.Stats().Subscribers >= 1+len(clients) })
	for i, q := range queries {
		if err := clients[i].Submit(q); err != nil {
			t.Fatalf("submit %s: %v", q, err)
		}
	}
	tuning := make([]int64, len(queries))
	done := make(chan error, len(queries))
	for i, q := range queries {
		go func(i int, q xpath.Path) {
			_, st, err := clients[i].Retrieve(ctx, q)
			if tuning[i] = st.TuningBytes; clients[i].CoveredFrom() != 0 {
				tuning[i] = -1
			}
			done <- err
		}(i, q)
	}
	for range queries {
		if err := <-done; err != nil {
			t.Fatalf("retrieve: %v", err)
		}
	}

	// Let the server broadcast until the pending set drains, then cut the
	// stream so the recorder returns.
	waitFor(t, ctx, "pending set to drain", func() bool {
		st := srv.Stats()
		return st.Pending == 0 && st.Cycles >= int64(wantCycles)
	})
	srv.Shutdown()
	if err := <-recDone; err == nil {
		t.Fatal("recorder finished early: server emitted more cycles than the sim")
	}

	return airedStream(t, buf.Bytes()), tuning
}

// airedStream is what a capture recorded off the air from its first cycle
// on: the capture file (docs/WIRE.md) without its magic and, on a
// compressed stream, without the transport hello.
func airedStream(t *testing.T, capture []byte) []byte {
	t.Helper()
	stream, ok := bytes.CutPrefix(capture, []byte("XBCAST4\n"))
	if !ok {
		t.Fatal("not a capture file")
	}
	if transport.IsHelloPrefix(stream) {
		r := bytes.NewReader(stream)
		if _, err := transport.ReadHello(r); err != nil {
			t.Fatal(err)
		}
		stream = stream[len(stream)-r.Len():]
	}
	return stream
}

// waitFor polls cond until it holds or the context expires.
func waitFor(t *testing.T, ctx context.Context, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(5 * time.Millisecond):
		}
	}
}
