package core

import (
	"slices"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// referencePrune is the three-pass prune PrunedView is specified against
// (§3.2), with sets for every intermediate: match nodes and the requested
// documents (the union of their subtree documents), the kept nodes (matched
// nodes and their ancestors), and a rebuild in DFS pre-order over the kept
// nodes that bubbles each dropped subtree's tuples up to its kept parent and
// filters every attachment list to the requested documents.
func referencePrune(ix *Index, queries []xpath.Path) (*Index, PruneStats) {
	stats := PruneStats{
		NodesBefore:       ix.NumNodes(),
		AttachmentsBefore: ix.NumAttachments(),
	}

	// Pass 1: match nodes and the requested document set.
	matched := make(map[NodeID]struct{})
	requested := make(map[xmldoc.DocID]struct{})
	ix.forEachMatch(yfilter.New(queries), func(id NodeID, accepted []int) {
		matched[id] = struct{}{}
		for _, d := range subtreeDocs(ix, id) {
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

	// Pass 3: rebuild in DFS pre-order over the kept nodes.
	out := &Index{Model: ix.Model}
	type frame struct{ old, parent NodeID }
	var stack []frame
	for i := len(ix.Roots) - 1; i >= 0; i-- {
		if _, ok := keep[ix.Roots[i]]; ok {
			stack = append(stack, frame{ix.Roots[i], NoNode})
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
		// in original child order.
		for i := len(n.Children) - 1; i >= 0; i-- {
			c := n.Children[i]
			if _, ok := keep[c]; ok {
				stack = append(stack, frame{c, id})
				continue
			}
			walkSubtree(ix, c, func(dropped *Node) {
				for _, d := range dropped.Docs {
					set[d] = struct{}{}
				}
			})
		}
		for _, d := range sortedDocSet(set) {
			if _, ok := requested[d]; ok {
				out.Nodes[id].Docs = append(out.Nodes[id].Docs, d)
			}
		}
	}

	stats.NodesAfter = out.NumNodes()
	stats.AttachmentsAfter = out.NumAttachments()
	return out, stats
}

// subtreeDocs returns the union of document tuples in the subtree of id,
// sorted: the answer set of a query matching at id.
func subtreeDocs(ix *Index, id NodeID) []xmldoc.DocID {
	set := make(map[xmldoc.DocID]struct{})
	walkSubtree(ix, id, func(n *Node) {
		for _, d := range n.Docs {
			set[d] = struct{}{}
		}
	})
	return sortedDocSet(set)
}

// walkSubtree visits the subtree of id in DFS pre-order, with an explicit
// stack so that deep tries cannot exhaust the goroutine stack.
func walkSubtree(ix *Index, id NodeID, visit func(*Node)) {
	stack := []NodeID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(&ix.Nodes[cur])
		children := ix.Nodes[cur].Children
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}
}

// sortedDocSet returns a document set in ascending order, nil when empty.
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
