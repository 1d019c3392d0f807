package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/broadcast"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/schedule"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// workload builds a NITF collection and a request batch against it.
func workload(t *testing.T, numDocs, numReqs int, seed int64) (*xmldoc.Collection, []ClientRequest) {
	t.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: numDocs, Seed: seed})
	if err != nil {
		t.Fatalf("Documents: %v", err)
	}
	pool, err := gen.Queries(c, gen.QueryConfig{NumQueries: 30, MaxDepth: 5, WildcardProb: 0.2, Seed: seed + 1})
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	qs, err := gen.Requests(pool, gen.WorkloadConfig{NumRequests: numReqs, ZipfS: 1.5, Seed: seed + 2})
	if err != nil {
		t.Fatalf("Requests: %v", err)
	}
	reqs := make([]ClientRequest, len(qs))
	for i, q := range qs {
		reqs[i] = ClientRequest{Query: q, Arrival: int64(i) * 500}
	}
	return c, reqs
}

func capacityFor(c *xmldoc.Collection) int {
	// Roughly three average documents per cycle forces multi-cycle queries.
	return 3 * c.TotalSize() / c.Len()
}

func TestRunCompletesBothModes(t *testing.T) {
	c, reqs := workload(t, 15, 20, 7)
	for _, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
		t.Run(mode.String(), func(t *testing.T) {
			res, err := Run(Config{
				Collection:    c,
				Mode:          mode,
				CycleCapacity: capacityFor(c),
				Requests:      reqs,
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(res.Clients) != len(reqs) {
				t.Fatalf("%d client stats, want %d", len(res.Clients), len(reqs))
			}
			for i, cl := range res.Clients {
				if want := reqs[i].Query.MatchingDocs(c); !reflect.DeepEqual(cl.Docs, want) {
					t.Errorf("client %d docs = %v, want %v", i, cl.Docs, want)
				}
				if cl.Completed < cl.Arrival {
					t.Errorf("client %d completed %d before arrival %d", i, cl.Completed, cl.Arrival)
				}
				if cl.AccessBytes != cl.Completed-cl.Arrival {
					t.Errorf("client %d access bytes inconsistent", i)
				}
				if cl.CyclesListened < 1 {
					t.Errorf("client %d listened to %d cycles", i, cl.CyclesListened)
				}
				if cl.IndexTuningBytes <= 0 {
					t.Errorf("client %d has no index tuning cost", i)
				}
				// Documents downloaded exactly once each.
				var wantDocBytes int64
				for _, d := range cl.Docs {
					wantDocBytes += int64(c.ByID(d).Size())
				}
				if cl.DocTuningBytes != wantDocBytes {
					t.Errorf("client %d doc bytes = %d, want %d", i, cl.DocTuningBytes, wantDocBytes)
				}
			}
			if res.NumCycles() == 0 {
				t.Error("no cycles broadcast")
			}
			if mode == broadcast.OneTierMode && res.MeanSecondTierBytes() != 0 {
				t.Error("one-tier run has second-tier bytes")
			}
			if mode == broadcast.TwoTierMode && res.MeanSecondTierBytes() <= 0 {
				t.Error("two-tier run has no second-tier bytes")
			}
		})
	}
}

func TestTwoTierBeatsOneTierOnIndexTuning(t *testing.T) {
	c, reqs := workload(t, 20, 30, 11)
	run := func(mode broadcast.Mode) *Result {
		res, err := Run(Config{Collection: c, Mode: mode, CycleCapacity: capacityFor(c), Requests: reqs})
		if err != nil {
			t.Fatalf("Run(%v): %v", mode, err)
		}
		return res
	}
	one := run(broadcast.OneTierMode)
	two := run(broadcast.TwoTierMode)
	if two.MeanIndexTuningBytes() >= one.MeanIndexTuningBytes() {
		t.Errorf("two-tier tuning %.0f not below one-tier %.0f",
			two.MeanIndexTuningBytes(), one.MeanIndexTuningBytes())
	}
	// Document retrieval cost is index-independent (§4.1) under the
	// time-oblivious default scheduler.
	if one.MeanDocTuningBytes() != two.MeanDocTuningBytes() {
		t.Errorf("doc tuning differs: %.0f vs %.0f", one.MeanDocTuningBytes(), two.MeanDocTuningBytes())
	}
	// Two-tier cycles are shorter (smaller index), so access time improves
	// or at least does not degrade materially.
	if two.MeanCycleBytes() >= one.MeanCycleBytes() {
		t.Errorf("two-tier cycle %.0f not below one-tier %.0f", two.MeanCycleBytes(), one.MeanCycleBytes())
	}
}

// TestEquationOneHolds verifies TT = L_I + n·L_O (Eq. 1) exactly for a
// single client under whole-tier reads.
func TestEquationOneHolds(t *testing.T) {
	c, _ := workload(t, 15, 1, 13)
	q, err := gen.Queries(c, gen.QueryConfig{NumQueries: 1, MaxDepth: 2, WildcardProb: 0.5, Seed: 99})
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	reqs := []ClientRequest{{Query: q[0], Arrival: 0}}
	res, err := Run(Config{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: capacityFor(c),
		Requests:      reqs,
		WholeTierRead: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cl := res.Clients[0]
	n := cl.CyclesListened
	if n > len(res.Cycles) {
		t.Fatalf("listened %d cycles of %d", n, len(res.Cycles))
	}
	want := int64(res.Cycles[0].IndexBytes)
	for i := 0; i < n; i++ {
		want += int64(res.Cycles[i].SecondTierBytes)
	}
	if cl.IndexTuningBytes != want {
		t.Errorf("TT = %d, want L_I + n·L_O = %d", cl.IndexTuningBytes, want)
	}
}

func TestStaggeredArrivalsAndIdleJump(t *testing.T) {
	c, _ := workload(t, 10, 1, 17)
	pool, err := gen.Queries(c, gen.QueryConfig{NumQueries: 5, MaxDepth: 3, Seed: 5})
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	// The second request arrives far after the first completes: the server
	// must jump its clock rather than broadcasting empty cycles.
	reqs := []ClientRequest{
		{Query: pool[0], Arrival: 0},
		{Query: pool[1], Arrival: 50_000_000},
	}
	res, err := Run(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacityFor(c), Requests: reqs})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Clients[1].Completed < 50_000_000 {
		t.Error("second client completed before it arrived")
	}
	if res.NumCycles() > 1000 {
		t.Errorf("idle gap produced %d cycles", res.NumCycles())
	}
}

func TestRunConfigErrors(t *testing.T) {
	c, reqs := workload(t, 5, 2, 19)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil collection", Config{Mode: broadcast.TwoTierMode, CycleCapacity: 1000, Requests: reqs}},
		{"no mode", Config{Collection: c, CycleCapacity: 1000, Requests: reqs}},
		{"no capacity", Config{Collection: c, Mode: broadcast.TwoTierMode, Requests: reqs}},
		{"no requests", Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 1000}},
		{"negative channels", Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 1000, Requests: reqs, Channels: -1}},
		{"too many channels", Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 1000, Requests: reqs, Channels: 257}},
		{"one-tier multichannel", Config{Collection: c, Mode: broadcast.OneTierMode, CycleCapacity: 1000, Requests: reqs, Channels: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); err == nil {
				t.Error("Run succeeded, want error")
			}
		})
	}
}

func TestRunUnsatisfiableQuery(t *testing.T) {
	c, _ := workload(t, 5, 1, 23)
	reqs := []ClientRequest{{Query: xpath.MustParse("/definitely/not/here")}}
	if _, err := Run(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 1000, Requests: reqs}); err == nil {
		t.Error("unsatisfiable query accepted")
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	c, reqs := workload(t, 15, 10, 29)
	_, err := Run(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacityFor(c), Requests: reqs, MaxCycles: 1})
	if err == nil {
		t.Error("MaxCycles=1 should abort a multi-cycle run")
	}
}

// unwantedPlan airs document doc, which no request wants, every cycle.
type unwantedPlan struct {
	schedule.LeeLo
	doc xmldoc.DocID
}

func (u unwantedPlan) PlanIndexed(*schedule.DemandIndex, int, int64) []xmldoc.DocID {
	return []xmldoc.DocID{u.doc}
}

// TestStalledRunFailsFast: a run whose cycles deliver nothing never drains its
// ledger. Lossless, at K = 1 and K = 4, it fails at its third such cycle, with
// no MaxCycles set; a lossy run, whose cycles can legitimately lose
// everything, runs on to MaxCycles.
func TestStalledRunFailsFast(t *testing.T) {
	c, reqs := workload(t, 15, 10, 29)
	// One request, of the query with the fewest answers, and a document it
	// does not want.
	q := reqs[0].Query
	for _, r := range reqs {
		if len(r.Query.MatchingDocs(c)) < len(q.MatchingDocs(c)) {
			q = r.Query
		}
	}
	unwanted := slices.IndexFunc(c.IDs(), func(d xmldoc.DocID) bool { return !slices.Contains(q.MatchingDocs(c), d) })
	if unwanted < 0 {
		t.Fatalf("query %s wants every document", q)
	}
	cfg := Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacityFor(c),
		Requests: []ClientRequest{{Query: q}}, Scheduler: unwantedPlan{doc: c.IDs()[unwanted]}}
	for _, k := range []int{1, 4} {
		cfg.Channels = k
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cycle %d ", stallCycles-1)) || !strings.Contains(err.Error(), "stalled") {
			t.Errorf("K=%d: Run error = %v, want the stall named at cycle %d", k, err, stallCycles-1)
		}
	}
	cfg.Channels, cfg.LossProb, cfg.MaxCycles = 1, 0.1, 20
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "MaxCycles=20") {
		t.Errorf("lossy: Run error = %v, want MaxCycles to stop it", err)
	}
}

func TestSchedulersAllComplete(t *testing.T) {
	c, reqs := workload(t, 12, 12, 31)
	for _, name := range schedule.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := schedule.New(name)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := Run(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacityFor(c), Requests: reqs, Scheduler: s})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for i, cl := range res.Clients {
				if len(cl.Docs) == 0 || cl.Completed == 0 {
					t.Errorf("client %d incomplete under %s", i, name)
				}
			}
		})
	}
}

func TestEmptyResultAggregates(t *testing.T) {
	var r Result
	if r.MeanAccessBytes() != 0 || r.MeanIndexTuningBytes() != 0 || r.MeanCycleBytes() != 0 {
		t.Error("aggregates over empty result should be zero")
	}
}

// TestQuickModesAgreeOnAnswers: both protocols deliver exactly the same
// result documents, and the two-tier protocol never spends more index tuning
// than the one-tier protocol on the same workload.
func TestQuickModesAgreeOnAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 8, Seed: seed})
		if err != nil {
			return false
		}
		pool, err := gen.Queries(c, gen.QueryConfig{NumQueries: 6, MaxDepth: 4, WildcardProb: 0.3, Seed: seed})
		if err != nil {
			return false
		}
		reqs := make([]ClientRequest, len(pool))
		for i, q := range pool {
			reqs[i] = ClientRequest{Query: q, Arrival: int64(i) * 1000}
		}
		cap := capacityFor(c)
		one, err := Run(Config{Collection: c, Mode: broadcast.OneTierMode, CycleCapacity: cap, Requests: reqs})
		if err != nil {
			return false
		}
		two, err := Run(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: cap, Requests: reqs})
		if err != nil {
			return false
		}
		for i := range reqs {
			if !reflect.DeepEqual(one.Clients[i].Docs, two.Clients[i].Docs) {
				return false
			}
			if one.Clients[i].DocTuningBytes != two.Clients[i].DocTuningBytes {
				return false
			}
		}
		return two.MeanIndexTuningBytes() <= one.MeanIndexTuningBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
