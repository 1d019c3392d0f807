package core

import (
	"reflect"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// referenceLookup is the set-based navigation Navigator.Lookup is specified
// against: the same protocol, with a map of documents and an explicit walk of
// each match node's child subtrees.
func referenceLookup(q xpath.Path, ix *Index) LookupResult {
	f := yfilter.New([]xpath.Path{q})
	var res LookupResult
	docs := make(map[xmldoc.DocID]struct{})
	var visit func(id NodeID, s yfilter.StateSet)
	visit = func(id NodeID, s yfilter.StateSet) {
		n := &ix.Nodes[id]
		res.Visited = append(res.Visited, id)
		next := f.Step(s, n.Label)
		if next.Empty() {
			return
		}
		if f.HasAccepting(next) {
			for _, d := range n.Docs {
				docs[d] = struct{}{}
			}
			for _, c := range n.Children {
				walkSubtree(ix, c, func(sub *Node) {
					res.Visited = append(res.Visited, sub.ID)
					for _, d := range sub.Docs {
						docs[d] = struct{}{}
					}
				})
			}
			return
		}
		for _, c := range n.Children {
			if !f.Step(next, ix.Nodes[c].Label).Empty() {
				visit(c, next)
			}
		}
	}
	for _, r := range ix.Roots {
		visit(r, f.Start())
	}
	res.Docs = sortedDocSet(docs)
	return res
}

// referencePacketsFor is the set-based packet count Packing.PacketsFor is
// specified against.
func referencePacketsFor(p *Packing, nodes []NodeID) int {
	seen := make(map[int]struct{})
	for _, id := range nodes {
		first, last := p.PacketRange(id)
		for pk := first; pk <= last; pk++ {
			seen[pk] = struct{}{}
		}
	}
	return len(seen)
}

// lookupMatchesReference reports whether nav reads ix exactly as the
// reference does: equal Docs (nil included), equal Visited order and equal
// packet counts under both layout orders and both index tiers.
func lookupMatchesReference(t *testing.T, nav *Navigator, ix *Index) bool {
	t.Helper()
	got, want := nav.Lookup(ix), referenceLookup(nav.Query(), ix)
	if !reflect.DeepEqual(got, want) {
		t.Logf("Lookup = %+v, reference %+v", got, want)
		return false
	}
	for _, tier := range []Tier{OneTier, FirstTier} {
		for _, order := range []PackOrder{PackDFS, PackBFS} {
			p := ix.PackOrdered(tier, order)
			if g, w := p.PacketsFor(got.Visited), referencePacketsFor(p, want.Visited); g != w {
				t.Logf("%v/%v PacketsFor = %d, reference %d", tier, order, g, w)
				return false
			}
		}
	}
	return true
}

func TestLookupMatchesReferencePaper(t *testing.T) {
	ix := paperCI(t)
	for _, expr := range []string{"/a/b/a", "/a/c/a", "/a//c", "/a/b", "/a/c/*", "/zzz", "//a", "/*"} {
		nav := NewNavigator(xpath.MustParse(expr))
		for range 3 { // a reused navigator reads the same again
			if !lookupMatchesReference(t, nav, ix) {
				t.Fatalf("%s: navigation differs from the reference", expr)
			}
		}
	}
}

// appendAllocs is the number of allocations appending n elements one at a
// time to a nil slice of T makes.
func appendAllocs[T any](n int) int {
	var s []T
	allocs := 0
	for range n {
		if len(s) == cap(s) {
			allocs++
		}
		s = append(s, *new(T))
	}
	return allocs
}

// TestLookupAllocs guards the navigation hot path: a warm Lookup allocates
// only the growth of its result's Docs and Visited, and PacketsFor one
// bitset.
func TestLookupAllocs(t *testing.T) {
	_, ix, queries := benchFixture(t)
	p := ix.Pack(FirstTier)
	for _, q := range queries[:20] {
		nav := NewNavigator(q)
		res := nav.Lookup(ix) // warm the automaton memo and the stamps
		want := appendAllocs[xmldoc.DocID](len(res.Docs)) + appendAllocs[NodeID](len(res.Visited))
		if got := testing.AllocsPerRun(20, func() { nav.Lookup(ix) }); got > float64(want) {
			t.Errorf("%s: Lookup allocates %.0f times, want at most %d (result growth)", q, got, want)
		}
		if got := testing.AllocsPerRun(20, func() { p.PacketsFor(res.Visited) }); got > 1 {
			t.Errorf("%s: PacketsFor allocates %.0f times, want at most 1", q, got)
		}
	}
}
