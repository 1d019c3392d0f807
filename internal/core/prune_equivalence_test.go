// Equivalence property: a PrunedView driven through an arbitrary sequence of
// query-set deltas and collection changes must produce, every step, exactly
// the index a from-scratch Prune of the same inputs produces — same nodes,
// same attachments, same packing, same wire bytes. The test lives in an
// external package so it can compare encodings through internal/wire.
package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// encodeIndex packs and wire-encodes an index for byte-level comparison.
func encodeIndex(t *testing.T, ix *core.Index) []byte {
	t.Helper()
	p := ix.Pack(core.FirstTier)
	enc, err := wire.EncodeIndex(ix, p, wire.BuildCatalog(ix), nil)
	if err != nil {
		t.Fatalf("EncodeIndex: %v", err)
	}
	return enc
}

func TestPrunedViewEquivalenceRandomized(t *testing.T) {
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
		want, wantStats, err := ci.Prune(qs)
		if err != nil {
			t.Fatalf("step %d: Prune: %v", step, err)
		}

		if err := got.Validate(); err != nil {
			t.Fatalf("step %d: view PCI invalid: %v", step, err)
		}
		if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Roots, want.Roots) {
			t.Fatalf("step %d (%d queries, full=%v reason=%q): view PCI structure differs from Prune",
				step, len(qs), delta.Full, delta.Reason)
		}
		if got.NumAttachments() != want.NumAttachments() {
			t.Fatalf("step %d: %d attachments, Prune has %d", step, got.NumAttachments(), want.NumAttachments())
		}
		if delta.Stats != wantStats {
			t.Errorf("step %d: delta stats %+v, Prune stats %+v", step, delta.Stats, wantStats)
		}
		if len(want.Nodes) > 0 {
			if g, w := encodeIndex(t, got), encodeIndex(t, want); !bytes.Equal(g, w) {
				t.Fatalf("step %d: wire encodings differ (%d vs %d bytes)", step, len(g), len(w))
			}
		}
	}
	// The drift is small by construction; the incremental path must carry
	// most steps or the property test isn't exercising it.
	if incremental < 30 {
		t.Errorf("only %d of 60 steps took the incremental path", incremental)
	}
}

// TestPruneDeadlineIsCooperative: an already-expired deadline stops both
// prune paths on the calling goroutine with context.DeadlineExceeded, at any
// point of a delta sequence, and never leaves a half-updated view behind —
// the next unbounded Update is a clean full prune equal to a from-scratch
// one.
func TestPruneDeadlineIsCooperative(t *testing.T) {
	docs, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := gen.Queries(docs, gen.QueryConfig{NumQueries: 12, MaxDepth: 5, WildcardProb: 0.15, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := core.BuildCI(docs, core.DefaultSizeModel())
	if err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Second)
	if _, _, err := ci.PruneWithFilter(yfilter.New(pool), past); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PruneWithFilter past its deadline: %v, want DeadlineExceeded", err)
	}
	view := core.NewPrunedView(0.9)
	// Expire on the first full prune, then mid-sequence on a small delta.
	for step, n := range []int{6, 7} {
		if _, _, err := view.UpdateUntil(ci, pool[:n], past); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("step %d: Update past its deadline: %v, want DeadlineExceeded", step, err)
		}
		got, delta, err := view.UpdateUntil(ci, pool[:n], time.Now().Add(time.Hour))
		if err != nil {
			t.Fatalf("step %d: Update after an expired one: %v", step, err)
		}
		if !delta.Full {
			t.Errorf("step %d: update after an expired one was not a full prune: %+v", step, delta)
		}
		want, _, err := ci.Prune(pool[:n])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeIndex(t, got), encodeIndex(t, want)) {
			t.Errorf("step %d: view after an expired update differs from a from-scratch prune", step)
		}
	}
}
