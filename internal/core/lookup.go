package core

import (
	"slices"
	"time"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// LookupResult is the outcome of one client-style index navigation.
type LookupResult struct {
	// Docs is the query's answer: the sorted IDs of matching documents.
	Docs []xmldoc.DocID
	// Visited lists the distinct index nodes the client had to read, in
	// read order: every node on the explored navigation frontier plus the
	// full subtree of every match node (document tuples are scattered
	// across match subtrees).
	Visited []NodeID
}

// Navigator performs index lookups for one query, caching the query's
// automaton so a client can re-navigate each broadcast cycle without
// recompiling. A Navigator is not safe for concurrent use.
type Navigator struct {
	query xpath.Path
	f     *yfilter.Filter
	start yfilter.StateSet
	// stamp[d] == gen once document d is in the answer of the lookup in
	// progress, which de-duplicates tuples without a set per lookup.
	stamp []uint32
	gen   uint32
}

// NewNavigator compiles a navigator for the query.
func NewNavigator(q xpath.Path) *Navigator {
	f := yfilter.New([]xpath.Path{q})
	return &Navigator{query: q, f: f, start: f.Start()}
}

// Query returns the navigator's query.
func (nav *Navigator) Query() xpath.Path { return nav.query }

// Filter exposes the navigator's compiled automaton so alternative index
// layouts (package succinct) can navigate with the identical machine.
func (nav *Navigator) Filter() *yfilter.Filter { return nav.f }

// Lookup navigates the index as the client access protocol does (§3.1):
// starting from the roots, the client reads a node, advances its query
// automaton on the node's label, and uses the node's <entry, pointer> tuples
// to descend only into children whose label keeps the automaton alive. At a
// node where the query accepts, the client reads the whole subtree to
// collect document tuples and descends no further there.
//
// The index must be stored in DFS pre-order (see Index.Answers). Lookup
// allocates only the growth of the result's two slices.
func (nav *Navigator) Lookup(ix *Index) LookupResult {
	if nav.gen++; nav.gen == 0 { // wrapped: stale stamps could alias
		clear(nav.stamp)
		nav.gen = 1
	}
	var res LookupResult
	for _, r := range ix.Roots {
		// The root's label is part of the index head, but the root node
		// itself must be read to obtain its entry list.
		nav.visit(ix, r, nav.start, &res)
	}
	slices.Sort(res.Docs)
	return res
}

func (nav *Navigator) visit(ix *Index, id NodeID, s yfilter.StateSet, res *LookupResult) {
	n := &ix.Nodes[id]
	res.Visited = append(res.Visited, id)
	next := nav.f.Step(s, n.Label)
	if next.Empty() {
		return
	}
	if nav.f.HasAccepting(next) {
		// The match node's subtree is the pre-order run after it; the
		// client reads all of it in that order.
		nav.collect(n.Docs, res)
		for i, end := id+1, ix.subtreeEnd(id); i < end; i++ {
			res.Visited = append(res.Visited, i)
			nav.collect(ix.Nodes[i].Docs, res)
		}
		return
	}
	for _, c := range n.Children {
		// The child's label is known from this node's entry list, so the
		// client steps the automaton before deciding to read it.
		if !nav.f.Step(next, ix.Nodes[c].Label).Empty() {
			nav.visit(ix, c, next, res)
		}
	}
}

// collect appends the node's document tuples not yet in the answer. Tuples
// are sorted, so the last is the largest.
func (nav *Navigator) collect(docs []xmldoc.DocID, res *LookupResult) {
	if n := len(docs); n > 0 && int(docs[n-1]) >= len(nav.stamp) {
		nav.stamp = append(nav.stamp, make([]uint32, int(docs[n-1])+1-len(nav.stamp))...)
	}
	for _, d := range docs {
		if nav.stamp[d] != nav.gen {
			nav.stamp[d] = nav.gen
			res.Docs = append(res.Docs, d)
		}
	}
}

// Lookup is a convenience wrapper that compiles and runs a one-off
// navigation for q.
func (ix *Index) Lookup(q xpath.Path) LookupResult {
	return NewNavigator(q).Lookup(ix)
}

// Answers evaluates every query of f over the index at once: entry i is the
// answer of f's query i — the union of the document tuples in the subtrees of
// its match nodes (§3.1) — sorted ascending without duplicates, or nil when
// nothing matches, exactly as yfilter's Filter answers over the indexed
// documents. This is how the server answers from the CI it already holds
// instead of scanning the documents; over a PCI it gives the same answers for
// the queries the PCI was pruned to.
//
// The index must be stored in DFS pre-order, as BuildCI and Prune produce it:
// a subtree is then a contiguous run of Nodes.
func (ix *Index) Answers(f *yfilter.Filter) [][]xmldoc.DocID {
	// Per query, the subtree runs [start, end) of its outermost match nodes as
	// flattened pairs. The walk visits nodes in ascending ID, so a match below
	// a node already taken for the same query starts before that run ends.
	runs := make([][]NodeID, f.NumQueries())
	ix.forEachMatch(f, time.Time{}, func(id NodeID, accepted []int) {
		end := NoNode
		for _, qi := range accepted {
			r := runs[qi]
			if len(r) > 0 && id < r[len(r)-1] {
				continue
			}
			if end == NoNode {
				end = ix.subtreeEnd(id)
			}
			runs[qi] = append(r, id, end)
		}
	})

	// A document hangs at each of its maximal paths, so it recurs within and
	// across runs; stamp[d] == qi+1 once d is in query qi's answer, which
	// de-duplicates before the sort without a set per query.
	out := make([][]xmldoc.DocID, len(runs))
	var stamp []int32
	for qi, r := range runs {
		mark := int32(qi + 1)
		var docs []xmldoc.DocID
		for k := 0; k < len(r); k += 2 {
			for i := r[k]; i < r[k+1]; i++ {
				tuples := ix.Nodes[i].Docs // sorted: the last is the largest
				if n := len(tuples); n > 0 && int(tuples[n-1]) >= len(stamp) {
					stamp = append(stamp, make([]int32, int(tuples[n-1])+1-len(stamp))...)
				}
				for _, d := range tuples {
					if stamp[d] != mark {
						stamp[d] = mark
						docs = append(docs, d)
					}
				}
			}
		}
		slices.Sort(docs)
		out[qi] = docs
	}
	return out
}

// subtreeEnd returns the ID one past the last node of id's subtree: in DFS
// pre-order the subtree is the run that ends after its rightmost leaf. The
// descent is a loop, so depth is no concern.
func (ix *Index) subtreeEnd(id NodeID) NodeID {
	for {
		children := ix.Nodes[id].Children
		if len(children) == 0 {
			return id + 1
		}
		id = children[len(children)-1]
	}
}
