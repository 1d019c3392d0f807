package core

import (
	"slices"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// checkLookupAnswers compares each query's Lookup over ix with the two
// document-side evaluators over the collection ix indexes: the NFA filter
// (nil for nil) and the reference path matcher.
func checkLookupAnswers(t *testing.T, ix *Index, c *xmldoc.Collection, queries []xpath.Path) [][]xmldoc.DocID {
	t.Helper()
	want := yfilter.New(queries).Filter(c)
	got := make([][]xmldoc.DocID, len(queries))
	for i, q := range queries {
		got[i] = NewNavigator(q).Lookup(ix).Docs
		if !slices.Equal(got[i], want[i]) || (got[i] == nil) != (want[i] == nil) {
			t.Errorf("%s: Lookup = %v, Filter = %v", q, got[i], want[i])
		}
		if ref := q.MatchingDocs(c); !slices.Equal(got[i], ref) {
			t.Errorf("%s: Lookup = %v, MatchingDocs = %v", q, got[i], ref)
		}
	}
	return got
}

// TestAnswersPaperExample pins the answers a lookup reads on the running
// example (Fig. 2): the query/answer table, and the shapes the walk has to get
// right — a `//a` that matches /a and, nested inside it, /a/b/a and /a/c/a; a
// `//c` whose two match subtrees both hold d2; a query that matches nothing.
func TestAnswersPaperExample(t *testing.T) {
	c := paperCollection(t)
	ix := paperCI(t)
	tests := []struct {
		expr string
		want []xmldoc.DocID
	}{
		{"/a/b/a", []xmldoc.DocID{1, 2}},
		{"/a/c/a", []xmldoc.DocID{4, 5}},
		{"/a//c", []xmldoc.DocID{1, 2, 3, 4, 5}},
		{"/a/b", []xmldoc.DocID{1, 2, 3, 5}},
		{"/a/c/*", []xmldoc.DocID{2, 4, 5}},
		{"//a", []xmldoc.DocID{1, 2, 3, 4, 5}},
		{"/a//a", []xmldoc.DocID{1, 2, 4, 5}},
		{"//b", []xmldoc.DocID{1, 2, 3, 5}},
		{"//c//b", []xmldoc.DocID{2}},
		{"/*/*/a", []xmldoc.DocID{1, 2, 4, 5}},
		{"//*", []xmldoc.DocID{1, 2, 3, 4, 5}},
		{"/zzz", nil},
		{"/a/b/a/c", nil},
	}
	queries := make([]xpath.Path, len(tests))
	for i, tt := range tests {
		queries[i] = xpath.MustParse(tt.expr)
	}
	got := checkLookupAnswers(t, ix, c, queries)
	for i, tt := range tests {
		if !slices.Equal(got[i], tt.want) {
			t.Errorf("Lookup(%s) = %v, want %v", tt.expr, got[i], tt.want)
		}
	}
}

// TestAnswersOverGeneratedCollections: two schemas in one collection
// (two CI roots), queries with `//` and `*`, and the property the air index
// rests on — pruning preserves the answer of every query it was pruned to, so
// the PCI a client navigates and the CI the server answers from agree.
func TestAnswersOverGeneratedCollections(t *testing.T) {
	nitf, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 15, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nasa, err := gen.Documents(gen.DocConfig{Schema: dtd.NASA(), NumDocs: 10, Seed: 6, FirstID: 100})
	if err != nil {
		t.Fatal(err)
	}
	c, err := xmldoc.NewCollection(append(slices.Clone(nitf.Docs()), nasa.Docs()...))
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 120, MaxDepth: 6, WildcardProb: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := BuildCI(c, DefaultSizeModel())
	if err != nil {
		t.Fatal(err)
	}
	want := checkLookupAnswers(t, ci, c, queries)

	for _, n := range []int{1, 7, 40} {
		subset := queries[:n]
		pci, _, err := ci.Prune(subset)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range subset {
			if got := pci.Lookup(q).Docs; !slices.Equal(got, want[i]) {
				t.Errorf("pruned to %d queries, %s: PCI answers %v, CI answers %v", n, q, got, want[i])
			}
		}
	}
	// The same holds on the running example's PCI (§3.2).
	paper := paperCI(t)
	pq := []xpath.Path{xpath.MustParse("/a/b"), xpath.MustParse("/a/b/c")}
	pci, _, err := paper.Prune(pq)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range pq {
		if got, want := pci.Lookup(q).Docs, paper.Lookup(q).Docs; !slices.Equal(got, want) {
			t.Errorf("%s: paper PCI answers %v, CI answers %v", q, got, want)
		}
	}
}

// TestAnswersDeepTrie: on a 20 000-level chain `//a` matches at every
// level, each match nested in the first, and `//leaf` keeps the automaton
// alive down the whole chain; the walk and the subtree bound must neither
// recurse per level nor re-read the chain per match.
func TestAnswersDeepTrie(t *testing.T) {
	const depth = 20_000
	ix := deepChain(depth)
	if end := ix.subtreeEnd(0); end != depth {
		t.Fatalf("subtreeEnd(root) = %d, want %d", end, depth)
	}
	if end := ix.subtreeEnd(depth - 1); end != depth {
		t.Fatalf("subtreeEnd(leaf) = %d, want %d", end, depth)
	}
	for _, tt := range []struct {
		expr    string
		want    []xmldoc.DocID
		visited int
	}{
		{"//a", []xmldoc.DocID{7}, depth},
		{"//leaf", []xmldoc.DocID{7}, depth},
		{"//a//a//leaf", []xmldoc.DocID{7}, depth},
		{"/leaf", nil, 1},
	} {
		res := ix.Lookup(xpath.MustParse(tt.expr))
		if !slices.Equal(res.Docs, tt.want) {
			t.Errorf("Lookup(%s) = %v, want %v", tt.expr, res.Docs, tt.want)
		}
		if len(res.Visited) != tt.visited {
			t.Errorf("Lookup(%s) read %d nodes, want %d", tt.expr, len(res.Visited), tt.visited)
		}
	}
}
