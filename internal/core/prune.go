package core

import (
	"slices"

	"repro/internal/xmldoc"
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
// Prune always works from scratch; a server re-pruning every cycle against a
// slowly drifting query set should maintain a PrunedView instead. The error
// is always nil.
func (ix *Index) Prune(queries []xpath.Path) (*Index, PruneStats, error) {
	stats := PruneStats{
		NodesBefore:       ix.NumNodes(),
		AttachmentsBefore: ix.NumAttachments(),
	}

	// Pass 1: run the query DFA over the trie to find match nodes, and
	// gather the requested document set (union of match-node subtree docs).
	matched := make(map[NodeID]struct{})
	requested := make(map[xmldoc.DocID]struct{})
	ix.forEachMatch(yfilter.New(queries), func(id NodeID, accepted []int) {
		matched[id] = struct{}{}
		for _, d := range ix.SubtreeDocs(id) {
			requested[d] = struct{}{}
		}
	})
	stats.MatchedNodes = len(matched)
	stats.DocsRequested = len(requested)

	// Pass 2: keep = matched ∪ ancestors(matched).
	keep := make(map[NodeID]struct{}, len(matched)*2)
	for id := range matched {
		for cur := id; cur != NoNode; cur = ix.Nodes[cur].Parent {
			if _, ok := keep[cur]; ok {
				break
			}
			keep[cur] = struct{}{}
		}
	}

	// Pass 3: rebuild in DFS pre-order over kept nodes, filtering document
	// tuples to requested documents and bubbling orphaned tuples up to the
	// nearest kept ancestor.
	out := ix.rebuildPruned(
		func(id NodeID) bool { _, ok := keep[id]; return ok },
		func(d xmldoc.DocID) bool { _, ok := requested[d]; return ok },
		nil,
	)

	stats.NodesAfter = out.NumNodes()
	stats.AttachmentsAfter = out.NumAttachments()
	return out, stats, nil
}

// matchFrame is one step of the explicit-stack DFA walk over the trie.
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

// rebuildFrame is one step of the explicit-stack pruned rebuild: the source
// node and its already-created parent in the output index.
type rebuildFrame struct {
	old    NodeID
	parent NodeID
}

// rebuildPruned rebuilds the kept part of the index in DFS pre-order:
// kept nodes are copied, an unkept node's whole subtree is dropped (any kept
// descendant would have kept it as an ancestor) with its document tuples
// bubbled up to the nearest kept ancestor, and each node's attachment list is
// filtered to requested documents. When record is non-nil it receives, per
// output node, the node's sorted candidate attachment set — own tuples plus
// bubbled tuples of dropped subtrees, before the requested filter — which is
// what PrunedView needs to re-filter attachments without re-walking the trie.
// Iterative throughout, so depth is bounded by heap, not stack.
func (ix *Index) rebuildPruned(kept func(NodeID) bool, requested func(xmldoc.DocID) bool, record func(id NodeID, candidates []xmldoc.DocID)) *Index {
	out := &Index{Model: ix.Model}
	stack := make([]rebuildFrame, 0, 64)
	for i := len(ix.Roots) - 1; i >= 0; i-- {
		if kept(ix.Roots[i]) {
			stack = append(stack, rebuildFrame{ix.Roots[i], NoNode})
		}
	}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := NodeID(len(out.Nodes))
		n := &ix.Nodes[fr.old]
		out.Nodes = append(out.Nodes, Node{ID: id, Label: n.Label, Parent: fr.parent})
		if fr.parent == NoNode {
			out.Roots = append(out.Roots, id)
		} else {
			out.Nodes[fr.parent].Children = append(out.Nodes[fr.parent].Children, id)
		}

		set := make(map[xmldoc.DocID]struct{}, len(n.Docs))
		for _, d := range n.Docs {
			set[d] = struct{}{}
		}
		// Children pushed in reverse so they pop — and get their output IDs —
		// in original child order, preserving the DFS pre-order layout.
		for i := len(n.Children) - 1; i >= 0; i-- {
			c := n.Children[i]
			if kept(c) {
				stack = append(stack, rebuildFrame{c, id})
				continue
			}
			ix.walkSubtree(c, func(dropped *Node) {
				for _, d := range dropped.Docs {
					set[d] = struct{}{}
				}
			})
		}
		candidates := sortedDocSet(set)
		if record != nil {
			record(id, candidates)
		}
		out.Nodes[id].Docs = filterDocs(candidates, requested)
	}
	return out
}

// filterDocs returns the requested subset of a sorted candidate list, or nil
// when none qualify (matching sortedDocSet's nil-for-empty convention).
func filterDocs(candidates []xmldoc.DocID, requested func(xmldoc.DocID) bool) []xmldoc.DocID {
	var out []xmldoc.DocID
	for _, d := range candidates {
		if requested(d) {
			out = append(out, d)
		}
	}
	return out
}

func sortedDocSet(set map[xmldoc.DocID]struct{}) []xmldoc.DocID {
	if len(set) == 0 {
		return nil
	}
	out := make([]xmldoc.DocID, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}
