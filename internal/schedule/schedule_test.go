package schedule

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/xmldoc"
)

func constSize(s int) func(xmldoc.DocID) int {
	return func(xmldoc.DocID) int { return s }
}

func TestNewAndNames(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Error("New(bogus) succeeded")
	}
}

func TestFCFSOrdersByArrival(t *testing.T) {
	pending := []Request{
		{ID: 2, Arrival: 50, Docs: []xmldoc.DocID{3, 4}},
		{ID: 1, Arrival: 10, Docs: []xmldoc.DocID{1, 2}},
	}
	got := FCFS{}.PlanCycle(pending, constSize(10), 30, 100)
	want := []xmldoc.DocID{1, 2, 3} // oldest request first, then capacity runs out
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanCycle = %v, want %v", got, want)
	}
}

func TestMRFPopularityWins(t *testing.T) {
	pending := []Request{
		{ID: 1, Docs: []xmldoc.DocID{5}},
		{ID: 2, Docs: []xmldoc.DocID{5, 7}},
		{ID: 3, Docs: []xmldoc.DocID{5, 7, 9}},
	}
	got := MRF{}.PlanCycle(pending, constSize(10), 20, 0)
	want := []xmldoc.DocID{5, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanCycle = %v, want %v", got, want)
	}
}

func TestRxWAgePromotes(t *testing.T) {
	pending := []Request{
		// doc 1: requested once, waiting 100; doc 2: requested twice, waiting 10.
		{ID: 1, Arrival: 0, Docs: []xmldoc.DocID{1}},
		{ID: 2, Arrival: 90, Docs: []xmldoc.DocID{2}},
		{ID: 3, Arrival: 90, Docs: []xmldoc.DocID{2}},
	}
	got := RxW{}.PlanCycle(pending, constSize(10), 10, 100)
	// R×W: doc1 = 1×100 = 100, doc2 = 2×10 = 20 → doc 1 wins.
	want := []xmldoc.DocID{1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanCycle = %v, want %v", got, want)
	}
}

func TestLeeLoCompletesNearlyDoneQueries(t *testing.T) {
	sizes := map[xmldoc.DocID]int{1: 10, 2: 10, 3: 10, 4: 10}
	size := func(d xmldoc.DocID) int { return sizes[d] }
	pending := []Request{
		// Request 1 needs only doc 1 (10 bytes remaining).
		{ID: 1, Docs: []xmldoc.DocID{1}},
		// Request 2 needs three docs (30 bytes remaining).
		{ID: 2, Docs: []xmldoc.DocID{2, 3, 4}},
	}
	got := LeeLo{}.PlanCycle(pending, size, 10, 0)
	want := []xmldoc.DocID{1} // completing request 1 scores 1/10 > 1/30
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanCycle = %v, want %v", got, want)
	}
}

func TestLeeLoPopularityAccumulates(t *testing.T) {
	pending := []Request{
		{ID: 1, Docs: []xmldoc.DocID{7, 8}},
		{ID: 2, Docs: []xmldoc.DocID{7, 9}},
		{ID: 3, Docs: []xmldoc.DocID{7}},
	}
	got := LeeLo{}.PlanCycle(pending, constSize(10), 10, 0)
	// doc 7 is needed by all three requests: 1/20+1/20+1/10 beats the rest.
	want := []xmldoc.DocID{7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanCycle = %v, want %v", got, want)
	}
}

func TestOversizedDocScheduledAlone(t *testing.T) {
	pending := []Request{{ID: 1, Docs: []xmldoc.DocID{1}}}
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		got := s.PlanCycle(pending, constSize(1000), 100, 0)
		if !reflect.DeepEqual(got, []xmldoc.DocID{1}) {
			t.Errorf("%s: oversized doc plan = %v, want [1]", name, got)
		}
	}
}

func TestEmptyPending(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if got := s.PlanCycle(nil, constSize(1), 100, 0); len(got) != 0 {
			t.Errorf("%s: plan over no pending = %v", name, got)
		}
	}
}

// TestQuickSchedulerContracts checks, for every scheduler over random
// workloads: no duplicates, only demanded documents, capacity respected
// (except the oversized-alone rule), and determinism.
func TestQuickSchedulerContracts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numDocs := 1 + r.Intn(20)
		sizes := make(map[xmldoc.DocID]int, numDocs)
		for i := 1; i <= numDocs; i++ {
			sizes[xmldoc.DocID(i)] = 1 + r.Intn(50)
		}
		size := func(d xmldoc.DocID) int { return sizes[d] }
		var pending []Request
		demanded := make(map[xmldoc.DocID]bool)
		for i := 0; i < 1+r.Intn(10); i++ {
			var docs []xmldoc.DocID
			for j := 0; j < 1+r.Intn(5); j++ {
				d := xmldoc.DocID(1 + r.Intn(numDocs))
				docs = append(docs, d)
				demanded[d] = true
			}
			pending = append(pending, Request{ID: int64(i), Arrival: int64(r.Intn(100)), Docs: docs})
		}
		capacity := 20 + r.Intn(100)
		now := int64(200)
		for _, name := range Names() {
			s, err := New(name)
			if err != nil {
				return false
			}
			plan := s.PlanCycle(pending, size, capacity, now)
			again := s.PlanCycle(pending, size, capacity, now)
			if !reflect.DeepEqual(plan, again) {
				t.Logf("%s not deterministic", name)
				return false
			}
			seen := make(map[xmldoc.DocID]bool)
			total := 0
			for _, d := range plan {
				if seen[d] || !demanded[d] {
					t.Logf("%s: duplicate or undemanded doc %d", name, d)
					return false
				}
				seen[d] = true
				total += size(d)
			}
			if total > capacity && len(plan) != 1 {
				t.Logf("%s: plan %v exceeds capacity %d", name, plan, capacity)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickLeeLoNeverIdles: if any demanded document fits, the plan is
// non-empty (work-conserving).
func TestQuickLeeLoNeverIdles(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pending := []Request{{ID: 1, Docs: []xmldoc.DocID{1, 2, 3}}}
		size := func(d xmldoc.DocID) int { return 5 + int(d) }
		capacity := 6 + r.Intn(50)
		plan := LeeLo{}.PlanCycle(pending, size, capacity, 0)
		return len(plan) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWeightedPlansMatchExpanded: FCFS, MRF and RxW plan a weighted Request
// as the requests it stands for. On seeded pending sets of entries of weight
// 0 (one) to 5, each policy's PlanCycle must plan the same as over the
// entries expanded to one request per member — the entry itself and members
// with its documents that sort after it by (Arrival, ID) — shuffled.
func TestWeightedPlansMatchExpanded(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nDocs := 2 + rng.Intn(30)
		sizes := make([]int, nDocs)
		for d := range sizes {
			sizes[d] = 100 + rng.Intn(900)
		}
		size := func(d xmldoc.DocID) int { return sizes[d] }
		var entries, expanded []Request
		nextMember := int64(1000)
		for i := 0; i < 1+rng.Intn(12); i++ {
			e := Request{ID: int64(i), Arrival: int64(rng.Intn(50)), Docs: randomSortedDocs(rng, nDocs, 1+rng.Intn(min(nDocs, 6))), Weight: rng.Intn(6)}
			entries = append(entries, e)
			expanded = append(expanded, Request{ID: e.ID, Arrival: e.Arrival, Docs: e.Docs})
			for k := 1; k < e.weight(); k++ {
				expanded = append(expanded, Request{ID: nextMember, Arrival: e.Arrival + int64(rng.Intn(3)), Docs: e.Docs})
				nextMember++
			}
		}
		rng.Shuffle(len(expanded), func(i, j int) { expanded[i], expanded[j] = expanded[j], expanded[i] })
		capacity, now := 500+rng.Intn(3000), int64(60+rng.Intn(20))
		for _, s := range []Scheduler{FCFS{}, MRF{}, RxW{}} {
			got, want := s.PlanCycle(entries, size, capacity, now), s.PlanCycle(expanded, size, capacity, now)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s plans %v over weighted entries, %v over their members", seed, s.Name(), got, want)
			}
		}
	}
}
