package core

import (
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func benchFixture(b testing.TB) (*xmldoc.Collection, *Index, []xpath.Path) {
	b.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 50, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := BuildCI(c, DefaultSizeModel())
	if err != nil {
		b.Fatal(err)
	}
	queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 200, MaxDepth: 5, WildcardProb: 0.1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	return c, ix, queries
}

func BenchmarkBuildCI(b *testing.B) {
	c, _, _ := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildCI(c, DefaultSizeModel()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrune200Queries(b *testing.B) {
	_, ix, queries := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Prune(queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPruneIncremental measures steady-state re-pruning under realistic
// query drift: every cycle swaps 5 of 200 active queries (≈5% churn, under
// the default fallback threshold). The delta sub-benchmark drives a warm
// PrunedView, full re-prunes from scratch over the identical drift sequence;
// the acceptance target is delta ≥ 2× faster than full.
func BenchmarkPruneIncremental(b *testing.B) {
	c, ix, _ := benchFixture(b)
	pool, err := gen.Queries(c, gen.QueryConfig{NumQueries: 220, MaxDepth: 5, WildcardProb: 0.1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	// window slides by 5 queries per cycle over the 220-query pool, so
	// consecutive windows differ by exactly 5 removed + 5 added.
	window := func(i int) []xpath.Path {
		off := (i * 5) % 20
		return pool[off : off+200]
	}
	b.Run("delta", func(b *testing.B) {
		view := NewPrunedView(0)
		if _, _, err := view.Update(ix, window(0)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := view.Update(ix, window(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.Prune(window(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkNavigatorLookup(b *testing.B) {
	_, ix, queries := benchFixture(b)
	navs := make([]*Navigator, len(queries))
	for i, q := range queries {
		navs[i] = NewNavigator(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		navs[i%len(navs)].Lookup(ix)
	}
}

func BenchmarkPackBothTiers(b *testing.B) {
	_, ix, _ := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Pack(OneTier)
		ix.Pack(FirstTier)
	}
}

func BenchmarkSubtreeDocs(b *testing.B) {
	_, ix, _ := benchFixture(b)
	root := ix.Roots[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SubtreeDocs(root)
	}
}
