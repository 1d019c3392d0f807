package core

import (
	"fmt"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func benchFixture(b testing.TB) (*xmldoc.Collection, *Index, []xpath.Path) {
	return benchFixtureSized(b, 50, 0)
}

// benchFixtureSized is benchFixture over numDocs documents whose text is
// scaled by textScale (0 keeps the generator's default), with a 200-query set
// drawn over them.
func benchFixtureSized(b testing.TB, numDocs int, textScale float64) (*xmldoc.Collection, *Index, []xpath.Path) {
	b.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: numDocs, TextScale: textScale, Seed: 1})
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

// BenchmarkBuildCI builds the CI of 100 and 1 000 NITF documents with little
// text: the DataGuide merge dominates.
func BenchmarkBuildCI(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: n, TextScale: 0.01, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildCI(c, DefaultSizeModel()); err != nil {
					b.Fatal(err)
				}
			}
		})
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
// the default fallback threshold). The delta sub-benchmarks drive a warm
// PrunedView, the full ones re-prune from scratch over the identical drift
// sequence. The plain pair runs on 50 documents. The -1k-docs pair runs on
// 1 000, their text cut to a tenth (the index is built from structure
// alone); the -10k-docs pair on those 1 000 repeated ten times under fresh
// IDs, since merging 10 000 generated DataGuides takes over a minute.
func BenchmarkPruneIncremental(b *testing.B) {
	for _, v := range []struct {
		suffix    string
		nDocs     int
		textScale float64
		repeats   int
	}{{"", 50, 0, 1}, {"-1k-docs", 1000, 0.1, 1}, {"-10k-docs", 1000, 0.1, 10}} {
		var ix *Index
		var window func(i int) []xpath.Path
		fixture := func(b *testing.B) {
			if ix != nil {
				return
			}
			c, built, _ := benchFixtureSized(b, v.nDocs, v.textScale)
			pool, err := gen.Queries(c, gen.QueryConfig{NumQueries: 220, MaxDepth: 5, WildcardProb: 0.1, Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			// window slides by 5 queries per cycle over the 220-query pool,
			// so consecutive windows differ by exactly 5 removed + 5 added.
			ix = repeatDocs(built, v.nDocs, v.repeats)
			window = func(i int) []xpath.Path {
				off := (i * 5) % 20
				return pool[off : off+200]
			}
		}
		b.Run("delta"+v.suffix, func(b *testing.B) {
			fixture(b)
			view := NewPrunedView(0)
			if _, _, err := view.Update(ix, window(0)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := view.Update(ix, window(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("full"+v.suffix, func(b *testing.B) {
			fixture(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Prune(window(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// repeatDocs returns a copy of an index over documents 1..n in which every
// tuple d also appears as d+n, d+2n, … up to repeats copies: the index of a
// collection holding each document repeats times under fresh IDs.
func repeatDocs(ix *Index, n, repeats int) *Index {
	out := &Index{Nodes: append([]Node(nil), ix.Nodes...), Roots: ix.Roots, Model: ix.Model}
	for i := range out.Nodes {
		docs := out.Nodes[i].Docs
		out.Nodes[i].Docs = nil
		for r := range repeats {
			for _, d := range docs {
				out.Nodes[i].Docs = append(out.Nodes[i].Docs, d+xmldoc.DocID(r*n))
			}
		}
	}
	return out
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
