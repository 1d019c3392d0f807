package core

import (
	"slices"

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
	// stack is the walk's scratch, kept across lookups.
	stack []matchFrame
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
// collect document tuples and descends no further there. Docs is the
// query's answer as §3.1 defines it, nil when nothing matches; over a PCI it
// is the CI's answer for every query the PCI was pruned to.
//
// The index must be stored in DFS pre-order, as BuildCI and Prune produce
// it: a subtree is then a contiguous run of Nodes. The walk keeps its own
// stack, so no depth of index exhausts the goroutine's, and a warm Lookup
// allocates only the growth of the result's two slices.
func (nav *Navigator) Lookup(ix *Index) LookupResult {
	if nav.gen++; nav.gen == 0 { // wrapped: stale stamps could alias
		clear(nav.stamp)
		nav.gen = 1
	}
	var res LookupResult
	// A frame is a node the client reads next and the automaton's state
	// after the node's label; popping children pushed in reverse reads the
	// nodes in pre-order.
	stack := nav.stack[:0]
	for i := len(ix.Roots) - 1; i >= 0; i-- {
		// The root's label is part of the index head, but the root node
		// itself must be read to obtain its entry list.
		r := ix.Roots[i]
		stack = append(stack, matchFrame{r, nav.f.Step(nav.start, ix.Nodes[r].Label)})
	}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Visited = append(res.Visited, fr.id)
		if fr.s.Empty() {
			continue
		}
		if nav.f.HasAccepting(fr.s) {
			// The match node's subtree is the pre-order run from it; the
			// client reads all of it in that order.
			nav.collect(ix.Nodes[fr.id].Docs, &res)
			for i, end := fr.id+1, ix.subtreeEnd(fr.id); i < end; i++ {
				res.Visited = append(res.Visited, i)
				nav.collect(ix.Nodes[i].Docs, &res)
			}
			continue
		}
		children := ix.Nodes[fr.id].Children
		for i := len(children) - 1; i >= 0; i-- {
			// The child's label is known from this node's entry list, so the
			// client steps the automaton before deciding to read it.
			c := children[i]
			if s := nav.f.Step(fr.s, ix.Nodes[c].Label); !s.Empty() {
				stack = append(stack, matchFrame{c, s})
			}
		}
	}
	nav.stack = stack
	slices.Sort(res.Docs)
	return res
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
