package engine

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/schedule"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// setAnswer makes docs the engine's cached answer to q, so that a ledger
// admits q with exactly that set.
func setAnswer(e *Engine, q xpath.Path, docs []xmldoc.DocID) {
	e.answers.put(&answerEntry{key: q.String(), query: q, docs: docs})
}

// ledgerDocs is the size of ledgerOf's collection, whose documents are
// numbered 1 to ledgerDocs.
const ledgerDocs = 120

// ledgerOf admits n requests over the fixture's queries (round-robin) into an
// in-memory ledger, the i-th arrived at i/10, each answered by the same first
// perReq documents of the collection. A nil sched selects the default.
func ledgerOf(t testing.TB, sched schedule.Scheduler, capacity, n, perReq int) *Ledger {
	t.Helper()
	c, queries := fixture(t, ledgerDocs, 12)
	e, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, Scheduler: sched, CycleCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	rem := c.IDs()[:perReq] // gen numbers documents in ascending order
	for _, q := range queries {
		setAnswer(e, q, rem)
	}
	l, err := NewLedger(e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := l.Admit(queries[i%len(queries)], 0, int64(i/10)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestRetireAllocFree pins the K = 1 retire pass: walking the plan and
// probing a request's sorted remaining set into a reused buffer allocates
// nothing, whatever the pending-set size.
func TestRetireAllocFree(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	l := ledgerOf(t, nil, 40_000, 300, 100)
	_, _, err := l.Air(0, func(cy *Cycle, enc *Encoded) error {
		l.eng.Recycle(enc)
		pending := l.Pending()
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// unwantedPlan plans as LeeLo does and then airs document doc instead, which
// no request wants: its cycles deliver nothing, so each leaves the pending set
// as it found it.
type unwantedPlan struct {
	schedule.LeeLo
	doc xmldoc.DocID
}

func (u unwantedPlan) PlanIndexed(x *schedule.DemandIndex, capacity int, now int64) []xmldoc.DocID {
	u.LeeLo.PlanIndexed(x, capacity, now)
	return []xmldoc.DocID{u.doc}
}

// TestAssembleCycleCostIndependentOfAnswerSize: airing a cycle over an
// unchanged 300-request pending set, assembly and commit included, costs the
// same number of allocations, and the same bytes within a few percent,
// whether every request still misses 10 documents or 100 — nothing per
// remaining document is copied or sorted once the demand index holds the set.
func TestAssembleCycleCostIndependentOfAnswerSize(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	measure := func(perReq int) (allocs float64, bytes uint64) {
		// Every cycle airs the collection's last document, which no request
		// wants, so both runs plan, prune, lay out and commit the same cycle
		// and differ only in the answer size.
		l := ledgerOf(t, unwantedPlan{doc: ledgerDocs}, 40_000, 300, perReq)
		air := func() {
			cy, _, err := l.Air(l.Cycles(), func(_ *Cycle, enc *Encoded) error { l.eng.Recycle(enc); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if l.Delivered() != 0 || l.Len() != 300 {
				t.Fatalf("cycle %d delivered %d documents, %d requests pending", cy.Number, l.Delivered(), l.Len())
			}
		}
		air()
		air()
		const runs = 20
		allocs = testing.AllocsPerRun(runs, air)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			air()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	a10, b10 := measure(10)
	a100, b100 := measure(100)
	t.Logf("per cycle: %.0f allocs / %d B at 10 remaining, %.0f allocs / %d B at 100", a10, b10, a100, b100)
	if a100 != a10 {
		t.Errorf("a cycle allocates %.0f objects with 100 remaining documents per request, %.0f with 10", a100, a10)
	}
	if b100 > b10+b10/10 {
		t.Errorf("a cycle allocates %d B with 100 remaining documents per request, %d B with 10", b100, b10)
	}
}

// TestUnsortedRemainingRejected: the demand index copies an admitted answer
// without sorting it, so admission must refuse a set that is out of order or
// holds a duplicate — on a fresh index and on one a cycle has aired from
// alike — with an error naming the request, and admit nothing.
func TestUnsortedRemainingRejected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bad   []xmldoc.DocID
		aired bool
	}{
		{"unsorted", []xmldoc.DocID{5, 3, 9}, false},
		{"duplicate", []xmldoc.DocID{3, 3, 9}, false},
		{"apply", []xmldoc.DocID{9, 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := ledgerOf(t, nil, 40_000, 5, 10)
			if tc.aired {
				if _, _, err := l.Air(0, func(_ *Cycle, enc *Encoded) error { l.eng.Recycle(enc); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			pending := l.Len()
			bad := xpath.MustParse("/nitf/head")
			setAnswer(l.eng, bad, tc.bad)
			_, _, err := l.Admit(bad, 0, 0)
			if err == nil || !strings.Contains(err.Error(), "request 6") {
				t.Fatalf("Admit error = %v, want one naming request 6", err)
			}
			if l.Len() != pending || l.demand.Len() != pending {
				t.Fatalf("%d pending and %d in the demand index after the refusal, want %d", l.Len(), l.demand.Len(), pending)
			}
		})
	}
}
