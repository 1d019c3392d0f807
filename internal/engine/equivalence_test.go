package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/netcast"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// capturedCycle is one cycle's wire image, deep-copied out of the pipeline.
// Multichannel cycles also carry the channel directory and each data
// channel's second-tier stripe and documents (stripe order).
type capturedCycle struct {
	number int64
	index  []byte
	docs   [][]byte

	channelDir  []byte
	secondTiers [][]byte
	chanDocs    [][][]byte
}

// captureSink returns a Config.CycleSink that deep-copies every cycle's
// encoded segments — including, for multichannel cycles, the per-channel
// stripes and doc payloads — into out.
func captureSink(out *[]capturedCycle) func(*engine.Cycle, *engine.Encoded) {
	return func(cy *engine.Cycle, enc *engine.Encoded) {
		cc := capturedCycle{
			number:     cy.Number,
			index:      append([]byte(nil), enc.Index...),
			channelDir: append([]byte(nil), enc.ChannelDir...),
		}
		for _, d := range enc.Docs {
			cc.docs = append(cc.docs, append([]byte(nil), d...))
		}
		for _, st := range enc.SecondTiers {
			cc.secondTiers = append(cc.secondTiers, append([]byte(nil), st...))
		}
		if len(cy.Channels) > 1 {
			byID := make(map[xmldoc.DocID][]byte, len(cy.Docs))
			for i, p := range cy.Docs {
				byID[p.ID] = cc.docs[i]
			}
			cc.chanDocs = make([][][]byte, len(cy.Channels))
			for c := 1; c < len(cy.Channels); c++ {
				for _, p := range cy.Channels[c].Docs {
					cc.chanDocs[c] = append(cc.chanDocs[c], byID[p.ID])
				}
			}
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

	simCycles := runSimCapture(t, c, queries, capacity)
	if len(simCycles) < 2 {
		t.Fatalf("fixture produced %d cycles; want a multi-cycle run", len(simCycles))
	}
	netCycles := runNetcastCapture(t, c, queries, capacity, len(simCycles))
	compareCycles(t, simCycles, netCycles)
}

// compareCycles asserts the netcast capture is a byte-identical replay of the
// simulator's cycles.
func compareCycles(t *testing.T, simCycles []capturedCycle, netCycles []netcast.CycleRecord) {
	t.Helper()
	if len(netCycles) < len(simCycles) {
		t.Fatalf("netcast broadcast %d cycles, sim %d", len(netCycles), len(simCycles))
	}
	for i, want := range simCycles {
		got := netCycles[i]
		if int64(got.Number) != want.number {
			t.Errorf("cycle %d: netcast number %d, sim number %d", i, got.Number, want.number)
		}
		if !bytes.Equal(got.IndexSeg, want.index) {
			t.Errorf("cycle %d: index segments differ (%d vs %d bytes)", i, len(got.IndexSeg), len(want.index))
		}
		if !bytes.Equal(got.SecondTierSeg, want.secondTiers[0]) {
			t.Errorf("cycle %d: second-tier segments differ (%d vs %d bytes)", i, len(got.SecondTierSeg), len(want.secondTiers[0]))
		}
		if len(got.Docs) != len(want.docs) {
			t.Fatalf("cycle %d: netcast carried %d documents, sim %d", i, len(got.Docs), len(want.docs))
		}
		for j := range want.docs {
			if !bytes.Equal(got.Docs[j], want.docs[j]) {
				t.Errorf("cycle %d doc %d: payloads differ", i, j)
			}
		}
	}
	if len(netCycles) > len(simCycles) {
		t.Errorf("netcast emitted %d extra cycles after the sim's pending set drained", len(netCycles)-len(simCycles))
	}
}

// TestSimNetcastStaggeredEquivalence extends the equivalence check to
// staggered arrivals, pinning the mapping between the two drivers' clocks:
// the simulator admits a request into cycle k when its byte-time arrival is
// at most cycle k's start, and the server admits it into cycle k when the
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
// The LeeLo variant runs with the simulator's default byte-time scheduler
// clock: LeeLo plans from remaining-document sets only, so the clock unit is
// irrelevant. The RxW variant is the interesting one — RxW scores depend on
// arrival times and "now", so the simulator switches to sim.ClockCycles,
// feeding the scheduler admission-cycle numbers exactly as the server does.
func TestSimNetcastStaggeredEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clock sim.ClockUnit
	}{
		{"leelo", sim.ClockBytes},
		{"rxw", sim.ClockCycles},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testStaggeredEquivalence(t, tc.name, tc.clock, 1)
		})
	}
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
			testStaggeredEquivalence(t, "leelo", sim.ClockBytes, k)
		})
	}
}

func testStaggeredEquivalence(t *testing.T, policy string, clock sim.ClockUnit, channels int) {
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
		_, stats := runStaggeredSim(t, c, queries[:n], arrivals[:n], capacity, policy, clock, channels)
		if len(stats) <= w {
			t.Fatalf("waves 0..%d drained in %d cycles; fixture cannot stagger wave %d", w-1, len(stats), w)
		}
		for i := n; i < n+waveSize; i++ {
			arrivals[i] = stats[w].Start
		}
	}

	simCycles, _ := runStaggeredSim(t, c, queries, arrivals, capacity, policy, clock, channels)
	if len(simCycles) <= numWaves {
		t.Fatalf("staggered fixture produced %d cycles; want more than %d", len(simCycles), numWaves)
	}
	netChans := runStaggeredNetcast(t, c, queries, waveSize, capacity, len(simCycles), policy, channels)
	if channels == 1 {
		compareCycles(t, simCycles, netChans[0])
		return
	}
	compareMultiCycles(t, simCycles, netChans)
}

// compareMultiCycles asserts each of the server's K channel streams is a
// byte-identical replay of the simulator's per-channel cycle shares.
func compareMultiCycles(t *testing.T, simCycles []capturedCycle, netChans [][]netcast.CycleRecord) {
	t.Helper()
	for ch, records := range netChans {
		if len(records) < len(simCycles) {
			t.Fatalf("channel %d captured %d cycles, sim broadcast %d", ch, len(records), len(simCycles))
		}
		if len(records) > len(simCycles) {
			t.Errorf("channel %d captured %d extra cycles after the sim's pending set drained", ch, len(records)-len(simCycles))
		}
	}
	for i, want := range simCycles {
		ix := netChans[0][i]
		if int64(ix.Number) != want.number {
			t.Errorf("cycle %d: netcast number %d, sim number %d", i, ix.Number, want.number)
		}
		if ix.IsData || int(ix.Channels) != len(netChans) {
			t.Errorf("cycle %d: index-channel head misdescribes the stream: %+v", i, ix)
		}
		if !bytes.Equal(ix.IndexSeg, want.index) {
			t.Errorf("cycle %d: index segments differ (%d vs %d bytes)", i, len(ix.IndexSeg), len(want.index))
		}
		if !bytes.Equal(ix.DirSeg, want.channelDir) {
			t.Errorf("cycle %d: channel directories differ (%d vs %d bytes)", i, len(ix.DirSeg), len(want.channelDir))
		}
		for ch := 1; ch < len(netChans); ch++ {
			got := netChans[ch][i]
			if int64(got.Number) != want.number || !got.IsData {
				t.Errorf("cycle %d channel %d: head %+v does not match sim cycle %d", i, ch, got, want.number)
			}
			if !bytes.Equal(got.SecondTierSeg, want.secondTiers[ch-1]) {
				t.Errorf("cycle %d channel %d: second-tier stripes differ (%d vs %d bytes)", i, ch, len(got.SecondTierSeg), len(want.secondTiers[ch-1]))
			}
			var wantDocs [][]byte
			if want.chanDocs != nil {
				wantDocs = want.chanDocs[ch]
			}
			if len(got.Docs) != len(wantDocs) {
				t.Fatalf("cycle %d channel %d: netcast carried %d documents, sim %d", i, ch, len(got.Docs), len(wantDocs))
			}
			for j := range wantDocs {
				if !bytes.Equal(got.Docs[j], wantDocs[j]) {
					t.Errorf("cycle %d channel %d doc %d: payloads differ", i, ch, j)
				}
			}
		}
	}
}

// runStaggeredSim runs the simulator with per-request byte-time arrivals and
// returns the captured cycles alongside their stats (for Start times).
func runStaggeredSim(t *testing.T, c *xmldoc.Collection, queries []xpath.Path, arrivals []int64, capacity int, policy string, clock sim.ClockUnit, channels int) ([]capturedCycle, []sim.CycleStats) {
	t.Helper()
	sched, err := schedule.New(policy)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]sim.ClientRequest, 0, len(queries))
	for i, q := range queries {
		reqs = append(reqs, sim.ClientRequest{Query: q, Arrival: arrivals[i]})
	}
	var out []capturedCycle
	res, err := sim.Run(sim.Config{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		Scheduler:     sched,
		ScheduleClock: clock,
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
func runStaggeredNetcast(t *testing.T, c *xmldoc.Collection, queries []xpath.Path, waveSize, capacity, wantCycles int, policy string, channels int) [][]netcast.CycleRecord {
	t.Helper()
	sched, err := schedule.New(policy)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netcast.StartServer(netcast.ServerConfig{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		Scheduler:     sched,
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

	out := make([][]netcast.CycleRecord, len(addrs))
	for i := range bufs {
		records, err := netcast.ReadCapture(bytes.NewReader(bufs[i].Bytes()))
		if err != nil {
			t.Fatalf("channel %d capture: %v", i, err)
		}
		out[i] = records
	}
	return out
}

// runSimCapture runs the simulator with every request arriving at time 0 and
// deep-copies each cycle's encoded segments through Config.CycleSink.
func runSimCapture(t *testing.T, c *xmldoc.Collection, queries []xpath.Path, capacity int) []capturedCycle {
	t.Helper()
	reqs := make([]sim.ClientRequest, 0, len(queries))
	for _, q := range queries {
		reqs = append(reqs, sim.ClientRequest{Query: q, Arrival: 0})
	}
	var out []capturedCycle
	_, err := sim.Run(sim.Config{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: capacity,
		Requests:      reqs,
		CycleSink:     captureSink(&out),
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runNetcastCapture boots a real server over TCP, submits the same queries
// (all before the first cycle fires), records the broadcast stream and parses
// it back into cycles.
func runNetcastCapture(t *testing.T, c *xmldoc.Collection, queries []xpath.Path, capacity, wantCycles int) []netcast.CycleRecord {
	t.Helper()
	srv, err := netcast.StartServer(netcast.ServerConfig{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: capacity,
		CycleInterval: 250 * time.Millisecond, // wide enough to land every submission before cycle 0
	})
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
		// stream; ReadCapture then salvages the final complete cycle.
		_, err := netcast.Record(ctx, srv.BroadcastAddr(), wantCycles+1, &buf)
		recDone <- err
	}()
	waitFor(t, ctx, "recorder subscription", func() bool { return srv.Stats().Subscribers >= 1 })

	cl, err := netcast.Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, q := range queries {
		if err := cl.Submit(q); err != nil {
			t.Fatalf("submit %s: %v", q, err)
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

	records, err := netcast.ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return records
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
