package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xpath"
)

// The benchmark's pending-set shape: about 290 requests for queries drawn
// uniformly from a 500-query pool over NITF documents, 25 arriving and the 25
// oldest leaving per cycle.
const (
	driftPool     = 500
	driftPending  = 290
	driftArrivals = 25
)

// drift replays a pending-set shape as a FIFO of pool indices.
type drift struct {
	ci       *core.Index
	pool     []xpath.Path
	rng      *rand.Rand
	arrivals int
	pending  []int // pool indices, oldest first
	queries  []xpath.Path
}

// newDrift replays the benchmark's shape over numDocs documents.
func newDrift(tb testing.TB, numDocs int) *drift {
	return newDriftShape(tb, numDocs, driftPending, driftArrivals)
}

// newDriftShape replays a FIFO of pending requests with arrivals of them
// replaced per cycle.
func newDriftShape(tb testing.TB, numDocs, pending, arrivals int) *drift {
	tb.Helper()
	docs, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: numDocs, TextScale: 2.1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	ci, err := core.BuildCI(docs, core.DefaultSizeModel())
	if err != nil {
		tb.Fatal(err)
	}
	pool, err := gen.Queries(docs, gen.QueryConfig{NumQueries: driftPool, MaxDepth: 5, WildcardProb: 0.1, Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	d := &drift{ci: ci, pool: pool, rng: rand.New(rand.NewSource(3)), arrivals: arrivals}
	for range pending {
		d.pending = append(d.pending, d.rng.Intn(len(pool)))
	}
	return d
}

// next advances the FIFO one cycle and returns the pending requests'
// queries, repeats included, in scratch the next call overwrites. It does
// not allocate.
func (d *drift) next() []xpath.Path {
	n := copy(d.pending, d.pending[d.arrivals:])
	d.pending = d.pending[:n]
	for range d.arrivals {
		d.pending = append(d.pending, d.rng.Intn(len(d.pool)))
	}
	d.queries = d.queries[:0]
	for _, qi := range d.pending {
		d.queries = append(d.queries, d.pool[qi])
	}
	return d.queries
}

// TestPrunedViewUpdateAllocs counts what one Update of a warm view allocates
// on the drift, churn fallbacks included, and that the count does not grow
// with the collection: the view's state is dense arrays sized once per CI,
// and the PCI is written into exact-size slabs.
func TestPrunedViewUpdateAllocs(t *testing.T) {
	perUpdate := func(numDocs int) float64 {
		d := newDrift(t, numDocs)
		view := core.NewPrunedView(0)
		for range 50 { // warm: every scratch buffer at its working size
			if _, _, err := view.Update(d.ci, d.next()); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() { _, _, _ = view.Update(d.ci, d.next()) })
	}
	small, large := perUpdate(100), perUpdate(1000)
	t.Logf("allocations per Update: %.0f at 100 documents, %.0f at 1 000", small, large)
	if small > 300 {
		t.Errorf("Update allocates %.0f times at 100 documents, want at most 300", small)
	}
	if large > 1.5*small {
		t.Errorf("Update allocates %.0f times at 1 000 documents, %.2f× the %.0f at 100; want at most 1.5×", large, large/small, small)
	}
}
