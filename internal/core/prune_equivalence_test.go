// Equivalence property: a PrunedView driven through an arbitrary sequence of
// query-set deltas and collection changes must produce, every step, exactly
// the index the set-based reference prune produces from scratch — same
// nodes, same attachments, same statistics, same wire bytes — and so must
// Index.Prune. The test lives in an external package so it can compare
// encodings through internal/wire.
package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// encodeIndex packs and wire-encodes an index for byte-level comparison. An
// index the node layout cannot carry (a node with more document tuples than
// its flag block counts) yields its error instead.
func encodeIndex(ix *core.Index) ([]byte, error) {
	p := ix.Pack(core.FirstTier)
	return wire.EncodeIndex(ix, p, wire.BuildCatalog(ix), nil)
}

// checkAgainstReference compares one Update's result, and Index.Prune of the
// same queries, with the reference prune.
func checkAgainstReference(t *testing.T, step int, ci *core.Index, qs []xpath.Path, got *core.Index, delta core.PruneDelta) {
	t.Helper()
	want, wantStats := core.ReferencePrune(ci, qs)
	pruned, pruneStats, err := ci.Prune(qs)
	if err != nil {
		t.Fatalf("step %d: Prune: %v", step, err)
	}
	for _, c := range []struct {
		name  string
		ix    *core.Index
		stats core.PruneStats
	}{{fmt.Sprintf("view (full=%v reason=%q)", delta.Full, delta.Reason), got, delta.Stats}, {"Prune", pruned, pruneStats}} {
		if err := c.ix.Validate(); err != nil {
			t.Fatalf("step %d: %s PCI invalid: %v", step, c.name, err)
		}
		if !reflect.DeepEqual(c.ix.Nodes, want.Nodes) || !reflect.DeepEqual(c.ix.Roots, want.Roots) {
			t.Fatalf("step %d (%d queries): %s PCI structure differs from the reference", step, len(qs), c.name)
		}
		if c.stats != wantStats {
			t.Fatalf("step %d: %s stats %+v, reference %+v", step, c.name, c.stats, wantStats)
		}
		if len(want.Nodes) == 0 {
			continue
		}
		g, gerr := encodeIndex(c.ix)
		w, werr := encodeIndex(want)
		if !bytes.Equal(g, w) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("step %d: %s wire encoding differs (%d bytes, %v; reference %d bytes, %v)", step, c.name, len(g), gerr, len(w), werr)
		}
	}
}

// TestPrunedViewEquivalenceRandomized drives a view through collection
// changes mixed with small query drift, and through the benchmark's FIFO
// drift at 100 and 1 000 documents, where incremental rebuilds and reuses of
// the previous PCI must both occur.
func TestPrunedViewEquivalenceRandomized(t *testing.T) {
	t.Run("collection-changes", testCollectionChanges)
	for _, c := range []struct {
		name        string
		docs, steps int
	}{{"drift-100-docs", 100, 300}, {"drift-1k-docs", 1000, 40}} {
		t.Run(c.name, func(t *testing.T) {
			d := newDrift(t, c.docs)
			view := core.NewPrunedView(0)
			var prev *core.Index
			rebuilt, reused := 0, 0
			for step := 0; step < c.steps; step++ {
				qs := d.next()
				got, delta, err := view.Update(d.ci, qs)
				if err != nil {
					t.Fatalf("step %d: Update: %v", step, err)
				}
				checkAgainstReference(t, step, d.ci, qs, got, delta)
				switch {
				case got == prev:
					reused++
				case !delta.Full:
					rebuilt++
				}
				prev = got
			}
			t.Logf("over %d steps: %d incremental rebuilds, %d reuses", c.steps, rebuilt, reused)
			if rebuilt == 0 || reused == 0 {
				t.Errorf("%d incremental rebuilds, %d reuses; want both", rebuilt, reused)
			}
		})
	}
}

func testCollectionChanges(t *testing.T) {
	docs, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := gen.Queries(docs, gen.QueryConfig{NumQueries: 40, MaxDepth: 5, WildcardProb: 0.15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	all := docs.Docs()

	rng := rand.New(rand.NewSource(42))
	active := make(map[int]bool, len(all)) // index into all → in collection
	for i := range all {
		active[i] = true
	}
	inSet := make(map[int]bool, len(pool)) // index into pool → in query set
	for i := 0; i < 10; i++ {
		inSet[rng.Intn(len(pool))] = true
	}

	buildCI := func() *core.Index {
		live := make([]*xmldoc.Document, 0, len(all))
		for i, d := range all {
			if active[i] {
				live = append(live, d)
			}
		}
		coll, err := xmldoc.NewCollection(live)
		if err != nil {
			t.Fatal(err)
		}
		ci, err := core.BuildCI(coll, core.DefaultSizeModel())
		if err != nil {
			t.Fatal(err)
		}
		return ci
	}
	queries := func() []xpath.Path {
		out := make([]xpath.Path, 0, len(inSet))
		for i, in := range inSet {
			if in {
				out = append(out, pool[i])
			}
		}
		return out
	}

	view := core.NewPrunedView(1) // only CI changes may force a full rebuild
	ci := buildCI()
	incremental := 0
	for step := 0; step < 60; step++ {
		// Mutate: mostly small query-set drift, occasionally a collection
		// add/remove (which rebuilds the CI and must reset the view).
		switch r := rng.Float64(); {
		case r < 0.15 && len(all) > 1:
			i := rng.Intn(len(all))
			active[i] = !active[i]
			ci = buildCI()
		default:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				i := rng.Intn(len(pool))
				inSet[i] = !inSet[i]
			}
		}
		qs := queries()

		got, delta, err := view.Update(ci, qs)
		if err != nil {
			t.Fatalf("step %d: Update: %v", step, err)
		}
		if !delta.Full {
			incremental++
		}
		checkAgainstReference(t, step, ci, qs, got, delta)
	}
	// The drift is small by construction; the incremental path must carry
	// most steps or the property test isn't exercising it.
	if incremental < 30 {
		t.Errorf("only %d of 60 steps took the incremental path", incremental)
	}
}
