package engine

import (
	"bytes"
	"runtime/debug"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// pendingFor resolves the given queries into one pending request each, but
// for those with an empty answer: the set airOnce admits, for the references.
func pendingFor(t *testing.T, e *Engine, queries []xpath.Path) []Pending {
	t.Helper()
	answers := resolveAll(e, queries)
	pending := make([]Pending, 0, len(queries))
	for i, q := range queries {
		if docs := answers[q.String()]; len(docs) > 0 {
			pending = append(pending, Pending{ID: int64(i), Query: q, Arrival: 0, Remaining: docs})
		}
	}
	return pending
}

// referenceBuilder is the bare two-tier builder referenceCycle lays cycles out
// with.
func referenceBuilder(t *testing.T, c *xmldoc.Collection) *broadcast.Builder {
	t.Helper()
	b, err := broadcast.NewBuilder(c, core.DefaultSizeModel(), broadcast.TwoTierMode)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceCycle assembles and encodes pending the way the engine is specified
// to, through the exported references alone: the scheduler's PlanCycle over
// the pending slice, Index.Prune over the distinct queries, and a bare
// broadcast.Builder for layout and wire segments.
func referenceCycle(t *testing.T, b *broadcast.Builder, sched schedule.Scheduler, capacity int, number, now int64, pending []Pending) (cy *Cycle, index, secondTier []byte) {
	t.Helper()
	reqs := make([]schedule.Request, len(pending))
	var queries []xpath.Path
	seen := make(map[string]bool, len(pending))
	for i, p := range pending {
		reqs[i] = schedule.Request{ID: p.ID, Arrival: p.Arrival, Docs: p.Remaining}
		if !seen[p.Query.String()] {
			seen[p.Query.String()] = true
			queries = append(queries, p.Query)
		}
	}
	size := func(d xmldoc.DocID) int { return b.DocByID(d).Size() }
	cy, err := b.BuildCycle(number, now, queries, sched.PlanCycle(reqs, size, capacity, now))
	if err != nil {
		t.Fatal(err)
	}
	segs, err := b.AppendEncoded(nil, cy)
	if err != nil {
		t.Fatal(err)
	}
	n := cy.IndexStreamBytes()
	return cy, segs[:n], segs[n:]
}

// TestPruneIncrementalAcrossCycles drives the engine through a drifting query
// set and checks that the incremental maintainer (a) takes the delta path, (b)
// produces a PCI byte-identical to a from-scratch prune, and (c) falls back on
// a collection change.
func TestPruneIncrementalAcrossCycles(t *testing.T) {
	c, queries := fixture(t, 20, 12)
	e := newEngine(t, c, c.TotalSize())

	// Cycle 0 over queries[0:8] is the view's first prune: full.
	airOnce(t, e, 0, queries[:8])
	m := e.Metrics()
	if m.FullPrunes != 1 || m.IncrementalPrunes != 0 {
		t.Fatalf("after first cycle: %d full / %d incremental prunes, want 1/0", m.FullPrunes, m.IncrementalPrunes)
	}

	// Cycle 1 swaps one query (≈12% churn, under the default threshold).
	drifted := append(append([]xpath.Path(nil), queries[1:8]...), queries[8])
	cy, encGot := airOnce(t, e, 1, drifted)
	m = e.Metrics()
	if m.IncrementalPrunes != 1 {
		t.Fatalf("after drifted cycle: IncrementalPrunes = %d, want 1", m.IncrementalPrunes)
	}
	if m.Stages[StagePruneDelta].Count == 0 {
		t.Error("delta update did not report StagePruneDelta")
	}

	// The incremental PCI must air exactly what a from-scratch prune airs.
	_, wantIndex, wantSecondTier := referenceCycle(t, referenceBuilder(t, c), e.Scheduler(), c.TotalSize(), 1, 0, pendingFor(t, e, drifted))
	if !bytes.Equal(payloads(t, encGot, 0, wire.FrameIndex)[0], wantIndex) {
		t.Error("incremental PCI index segment differs from from-scratch prune")
	}
	if !bytes.Equal(payloads(t, encGot, 0, wire.FrameSecondTier)[0], wantSecondTier) {
		t.Error("incremental second-tier segment differs from from-scratch prune")
	}
	e.Recycle(encGot)

	// An unchanged query set is the degenerate incremental update.
	airOnce(t, e, 2, drifted)
	if m = e.Metrics(); m.IncrementalPrunes != 2 {
		t.Errorf("repeat cycle: IncrementalPrunes = %d, want 2", m.IncrementalPrunes)
	}

	// A collection change rebuilds the CI; the next prune must fall back.
	if err := e.RemoveDocument(cy.Docs[0].ID); err != nil {
		t.Fatal(err)
	}
	airOnce(t, e, 3, drifted)
	m = e.Metrics()
	if m.PruneFallbacks != 1 {
		t.Errorf("after collection change: PruneFallbacks = %d, want 1", m.PruneFallbacks)
	}
	if m.FullPrunes != 2 {
		t.Errorf("after collection change: FullPrunes = %d, want 2 (initial + fallback)", m.FullPrunes)
	}
}

// TestPruneChurnFallback checks that swapping more than the churn fraction of
// the query set forces a full re-prune on the live view.
func TestPruneChurnFallback(t *testing.T) {
	c, queries := fixture(t, 20, 16)
	e := newEngine(t, c, c.TotalSize())
	airOnce(t, e, 0, queries[:8]) // full (initial)
	// Replace all eight queries: 100% churn.
	airOnce(t, e, 1, queries[8:16])
	m := e.Metrics()
	if m.PruneFallbacks != 1 {
		t.Errorf("PruneFallbacks = %d, want 1 after full query-set turnover", m.PruneFallbacks)
	}
	if m.IncrementalPrunes != 0 {
		t.Errorf("IncrementalPrunes = %d, want 0", m.IncrementalPrunes)
	}
}

// TestEncodeCycleErrorRecyclesBuffer is a regression test for a pooled-buffer
// leak: EncodeCycle error paths must hand the segment buffer back to the pool.
func TestEncodeCycleErrorRecyclesBuffer(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool randomly drops Puts under the race detector")
	}
	// Pin the pool: a GC may clear sync.Pool contents, which would count a
	// false miss below.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	c, queries := fixture(t, 6, 4)
	e := newEngine(t, c, c.TotalSize())
	cy, enc := airOnce(t, e, 0, queries)
	e.Recycle(enc)

	// Retire a scheduled document so the docs loop fails mid-encode, and
	// drop its cached payload so the miss hits the collection lookup.
	if err := e.RemoveDocument(cy.Docs[0].ID); err != nil {
		t.Fatal(err)
	}

	misses := 0
	e.framePool.New = func() any {
		misses++
		b := make([]byte, 0, 4096)
		return &b
	}
	for i := 0; i < 5; i++ {
		if _, err := e.EncodeCycle(cy); err == nil {
			t.Fatal("EncodeCycle of a retired document must fail")
		}
	}
	if misses > 1 {
		t.Errorf("pooled buffer leaked: %d pool misses across 5 failing encodes, want at most 1", misses)
	}
}
