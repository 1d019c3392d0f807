package engine

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/schedule"
	"repro/internal/xmldoc"
)

// pendingOf builds n requests over the fixture's queries (round-robin), each
// still missing the same first perReq documents of the collection.
func pendingOf(t testing.TB, n, perReq int) (*xmldoc.Collection, []Pending) {
	t.Helper()
	c, queries := fixture(t, 120, 12)
	rem := c.IDs()[:perReq] // gen numbers documents in ascending order
	pending := make([]Pending, n)
	for i := range pending {
		pending[i] = Pending{ID: int64(i + 1), Query: queries[i%len(queries)], Arrival: int64(i / 10), Remaining: rem}
	}
	return c, pending
}

// TestRetireAllocFree pins the K = 1 retire pass: walking the plan and
// probing a request's sorted remaining set into a reused buffer allocates
// nothing, whatever the pending-set size.
func TestRetireAllocFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c, pending := pendingOf(t, 300, 100)
	cy, err := newEngine(t, c, 40_000).AssembleCycle(0, 0, pending)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]broadcast.Commitment, 0, len(cy.Docs))
	delivered := 0
	allocs := testing.AllocsPerRun(20, func() {
		for i := range pending {
			buf = cy.Commitments(buf[:0], pending[i].Remaining, i%2 == 0)
			delivered += len(buf)
		}
	})
	if delivered == 0 {
		t.Fatal("fixture delivers nothing")
	}
	if allocs != 0 {
		t.Errorf("K=1 retire of %d requests allocates %.0f objects/run, want 0", len(pending), allocs)
	}
}

// TestAssembleCycleCostIndependentOfAnswerSize pins the borrow: assembling
// over an unchanged 300-request pending set costs the same number of
// allocations, and the same bytes within a few percent, whether every request
// still misses 10 documents or 100 — nothing per remaining document is
// copied or sorted once the demand index has seen the set.
func TestAssembleCycleCostIndependentOfAnswerSize(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	measure := func(perReq int) (allocs float64, bytes uint64) {
		c, pending := pendingOf(t, 300, perReq)
		// Capacity below the smallest document: every plan is the one
		// oversized document the policy ranks first, so both runs plan, prune
		// and lay out the same cycle and differ only in the answer size.
		eng := newEngine(t, c, 1)
		number := int64(0)
		assemble := func() {
			if _, err := eng.AssembleCycle(number, number, pending); err != nil {
				t.Fatal(err)
			}
			number++
		}
		assemble() // cold start: the demand index is built here
		assemble()
		const runs = 20
		allocs = testing.AllocsPerRun(runs, assemble)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			assemble()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	a10, b10 := measure(10)
	a100, b100 := measure(100)
	t.Logf("per cycle: %.0f allocs / %d B at 10 remaining, %.0f allocs / %d B at 100", a10, b10, a100, b100)
	if a100 != a10 {
		t.Errorf("AssembleCycle allocates %.0f objects with 100 remaining documents per request, %.0f with 10", a100, a10)
	}
	if b100 > b10+b10/10 {
		t.Errorf("AssembleCycle allocates %d B with 100 remaining documents per request, %d B with 10", b100, b10)
	}
}

// TestUnsortedRemainingRejected: the engine borrows Remaining without sorting
// it, so the scheduling code that reads it must refuse a set that is out of
// order or holds a duplicate — on the demand index's rebuild and delta paths
// alike — with an error naming the request.
func TestUnsortedRemainingRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  []xmldoc.DocID
	}{
		{"rebuild/unsorted", []xmldoc.DocID{5, 3, 9}},
		{"rebuild/duplicate", []xmldoc.DocID{3, 3, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, pending := pendingOf(t, 8, 10)
			eng, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 40_000})
			if err != nil {
				t.Fatal(err)
			}
			pending[5].Remaining = tc.bad
			_, err = eng.AssembleCycle(0, 0, pending)
			if err == nil || !strings.Contains(err.Error(), "request 6") {
				t.Fatalf("AssembleCycle error = %v, want one naming request 6", err)
			}
		})
	}
	t.Run("apply", func(t *testing.T) {
		c, pending := pendingOf(t, 40, 10)
		eng, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 40_000, Scheduler: schedule.FCFS{}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AssembleCycle(0, 0, pending); err != nil {
			t.Fatal(err)
		}
		// One changed request out of 40 stays under the churn threshold, so
		// it reaches the index through Apply.
		pending[5].Remaining = []xmldoc.DocID{9, 3}
		_, err = eng.AssembleCycle(1, 1, pending)
		if err == nil || !strings.Contains(err.Error(), "request 6") {
			t.Fatalf("AssembleCycle error = %v, want one naming request 6", err)
		}
		if got := eng.Metrics().FullSchedules; got != 1 {
			t.Errorf("FullSchedules = %d, want 1 (the second cycle must take the delta path)", got)
		}
	})
}
