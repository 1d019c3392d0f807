package core

import (
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// PruneStats summarises the effect of a pruning pass.
type PruneStats struct {
	// NodesBefore and NodesAfter count index nodes.
	NodesBefore, NodesAfter int
	// AttachmentsBefore and AttachmentsAfter count document tuples.
	AttachmentsBefore, AttachmentsAfter int
	// DocsRequested counts distinct documents requested by the query set.
	DocsRequested int
	// MatchedNodes counts nodes where at least one query accepts.
	MatchedNodes int
}

// Prune builds the PCI for the pending query set (§3.2): every node where
// some query accepts is marked, marked nodes and their ancestors are kept,
// all other nodes are removed. Documents requested by no query are dropped;
// document tuples orphaned by the removal of their node are re-attached to
// the nearest kept ancestor, which preserves the answer of every pending
// query exactly (an answer is the union of subtree attachments of the
// query's match nodes, and re-attachment never moves a document out of a
// kept match node's subtree).
//
// Pruning is transparent to clients: lookups over the PCI use the same
// protocol as over the CI.
//
// Prune is a fresh PrunedView's first Update; a server re-pruning every cycle
// against a slowly drifting query set should keep the view instead. ix must
// pass Validate (BuildCI's indexes do): the PCI lists kept nodes in ix's
// storage order, which is DFS pre-order only if ix's is. The error is always
// nil.
func (ix *Index) Prune(queries []xpath.Path) (*Index, PruneStats, error) {
	pci, delta, err := NewPrunedView(0).Update(ix, queries)
	return pci, delta.Stats, err
}

// matchFrame is one step of an explicit-stack DFA walk over the trie: a node
// and an automaton state — before the node's label in forEachMatch, after it
// in Navigator.Lookup.
type matchFrame struct {
	id NodeID
	s  yfilter.StateSet
}

// forEachMatch runs the query automaton over the trie and invokes visit for
// every node where at least one query accepts, passing the sorted accepting
// query indices. The walk uses an explicit stack, so synthetic tries of
// arbitrary depth cannot exhaust the goroutine stack.
func (ix *Index) forEachMatch(f *yfilter.Filter, visit func(id NodeID, accepted []int)) {
	stack := make([]matchFrame, 0, 64)
	start := f.Start()
	for i := len(ix.Roots) - 1; i >= 0; i-- {
		stack = append(stack, matchFrame{ix.Roots[i], start})
	}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &ix.Nodes[fr.id]
		next := f.Step(fr.s, n.Label)
		if next.Empty() {
			continue
		}
		if accepted := f.Accepting(next); len(accepted) > 0 {
			visit(fr.id, accepted)
		}
		for i := len(n.Children) - 1; i >= 0; i-- {
			stack = append(stack, matchFrame{n.Children[i], next})
		}
	}
}
