package core

import (
	"fmt"
	"sort"

	"repro/internal/dataguide"
	"repro/internal/xmldoc"
)

// NodeID indexes a node within an Index; nodes are stored in depth-first
// pre-order, the order in which they are laid out on air.
type NodeID int32

// NoNode is the nil NodeID.
const NoNode NodeID = -1

// Node is one index node (paper Fig. 3(c)): a flag block, a list of
// <entry, pointer> child tuples and a list of document tuples.
type Node struct {
	// ID is the node's position in Index.Nodes (DFS pre-order).
	ID NodeID
	// Label is the element name this node represents.
	Label string
	// Parent is the parent node, or NoNode for roots.
	Parent NodeID
	// Children are child node IDs in label-sorted order. Because nodes are
	// stored in DFS pre-order, children always have larger IDs.
	Children []NodeID
	// Docs are the document tuples attached to this node: the documents for
	// which this node's path is maximal (after pruning, also re-attached
	// descendants' documents), sorted by ID.
	Docs []xmldoc.DocID
}

// Kind classifies the node per the paper's flag block.
func (n *Node) Kind() NodeKind {
	switch {
	case n.Parent == NoNode:
		return KindRoot
	case len(n.Children) == 0:
		return KindLeaf
	default:
		return KindInternal
	}
}

// Size reports the node's on-air byte size under the model and tier.
func (n *Node) Size(m SizeModel, t Tier) int {
	return m.FlagBytes + len(n.Children)*m.EntryBytes() + len(n.Docs)*m.DocTupleBytes(t)
}

// Index is a CI or PCI: the merged-DataGuide trie annotated with document
// tuples, in depth-first layout.
type Index struct {
	// Nodes in DFS pre-order. Nodes[i].ID == i.
	Nodes []Node
	// Roots are the tree roots (one per distinct document root label).
	Roots []NodeID
	// Model fixes field widths.
	Model SizeModel
}

// BuildCI constructs the Compact Index of a whole collection: the merged
// DataGuides of every document with documents attached at their maximal
// paths (§3.1).
func BuildCI(c *xmldoc.Collection, m SizeModel) (*Index, error) {
	return BuildCIFromForest(dataguide.Merge(c), m)
}

// BuildCIFromForest builds the CI over an already-merged DataGuide forest.
func BuildCIFromForest(f *dataguide.Forest, m SizeModel) (*Index, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ix := &Index{Model: m}
	for _, root := range f.Roots {
		id := ix.addSubtree(root, NoNode)
		ix.Roots = append(ix.Roots, id)
	}
	return ix, nil
}

// addSubtree appends the guide subtree in DFS pre-order and returns the new
// node's ID.
func (ix *Index) addSubtree(g *dataguide.Guide, parent NodeID) NodeID {
	id := NodeID(len(ix.Nodes))
	ix.Nodes = append(ix.Nodes, Node{
		ID:     id,
		Label:  g.Label,
		Parent: parent,
		Docs:   append([]xmldoc.DocID(nil), g.Docs...),
	})
	for _, c := range g.Children {
		childID := ix.addSubtree(c, id)
		ix.Nodes[id].Children = append(ix.Nodes[id].Children, childID)
	}
	return id
}

// NumNodes reports the node count.
func (ix *Index) NumNodes() int { return len(ix.Nodes) }

// NumAttachments reports the total number of document tuples across nodes —
// the duplication the two-tier structure normalises away.
func (ix *Index) NumAttachments() int {
	total := 0
	for i := range ix.Nodes {
		total += len(ix.Nodes[i].Docs)
	}
	return total
}

// DocIDs returns the distinct documents referenced by the index, sorted.
func (ix *Index) DocIDs() []xmldoc.DocID {
	set := make(map[xmldoc.DocID]struct{})
	for i := range ix.Nodes {
		for _, id := range ix.Nodes[i].Docs {
			set[id] = struct{}{}
		}
	}
	out := make([]xmldoc.DocID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size reports the total logical index size in bytes under the tier (the sum
// of node sizes, before packet padding).
func (ix *Index) Size(t Tier) int {
	total := 0
	for i := range ix.Nodes {
		total += ix.Nodes[i].Size(ix.Model, t)
	}
	return total
}

// PathOf reconstructs the label path of a node, for diagnostics and tests.
func (ix *Index) PathOf(id NodeID) []string {
	var rev []string
	for id != NoNode {
		rev = append(rev, ix.Nodes[id].Label)
		id = ix.Nodes[id].Parent
	}
	out := make([]string, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// FindPath returns the node with the given label path, or NoNode.
func (ix *Index) FindPath(labels []string) NodeID {
	if len(labels) == 0 {
		return NoNode
	}
	cur := NoNode
	for _, r := range ix.Roots {
		if ix.Nodes[r].Label == labels[0] {
			cur = r
			break
		}
	}
	if cur == NoNode {
		return NoNode
	}
	for _, l := range labels[1:] {
		next := NoNode
		for _, c := range ix.Nodes[cur].Children {
			if ix.Nodes[c].Label == l {
				next = c
				break
			}
		}
		if next == NoNode {
			return NoNode
		}
		cur = next
	}
	return cur
}

// Validate checks structural invariants: DFS-pre-order storage (a walk from
// the roots, children in list order, meets the nodes in ID order), consistent
// parent/child links, label-sorted children and sorted document lists. It is used by
// tests and by the wire decoder.
func (ix *Index) Validate() error {
	if err := ix.Model.Validate(); err != nil {
		return err
	}
	for i := range ix.Nodes {
		n := &ix.Nodes[i]
		if n.ID != NodeID(i) {
			return fmt.Errorf("core: node %d has ID %d", i, n.ID)
		}
		if n.Parent != NoNode && (n.Parent < 0 || int(n.Parent) >= len(ix.Nodes)) {
			return fmt.Errorf("core: node %d has out-of-range parent %d", i, n.Parent)
		}
		if n.Parent != NoNode && n.Parent >= n.ID {
			return fmt.Errorf("core: node %d not in pre-order: parent %d", i, n.Parent)
		}
		prevLabel := ""
		for ci, c := range n.Children {
			if c <= n.ID || int(c) >= len(ix.Nodes) {
				return fmt.Errorf("core: node %d has bad child %d", i, c)
			}
			if ix.Nodes[c].Parent != n.ID {
				return fmt.Errorf("core: node %d child %d does not point back", i, c)
			}
			if ci > 0 && ix.Nodes[c].Label <= prevLabel {
				return fmt.Errorf("core: node %d children not label-sorted", i)
			}
			prevLabel = ix.Nodes[c].Label
		}
		for di := 1; di < len(n.Docs); di++ {
			if n.Docs[di-1] >= n.Docs[di] {
				return fmt.Errorf("core: node %d docs not sorted/deduped", i)
			}
		}
	}
	// Every non-root node must be listed exactly once among its parent's
	// children; otherwise it is unreachable from the roots.
	childCount := make(map[NodeID]int, len(ix.Nodes))
	for i := range ix.Nodes {
		for _, c := range ix.Nodes[i].Children {
			childCount[c]++
		}
	}
	for i := range ix.Nodes {
		n := &ix.Nodes[i]
		if n.Parent == NoNode {
			if childCount[n.ID] != 0 {
				return fmt.Errorf("core: root-like node %d listed as a child", i)
			}
			continue
		}
		if childCount[n.ID] != 1 {
			return fmt.Errorf("core: node %d listed as a child %d times, want 1", i, childCount[n.ID])
		}
		found := false
		for _, c := range ix.Nodes[n.Parent].Children {
			if c == n.ID {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: node %d missing from parent %d's children", i, n.Parent)
		}
	}
	seen := make(map[NodeID]struct{}, len(ix.Roots))
	for _, r := range ix.Roots {
		if r < 0 || int(r) >= len(ix.Nodes) {
			return fmt.Errorf("core: out-of-range root %d", r)
		}
		if ix.Nodes[r].Parent != NoNode {
			return fmt.Errorf("core: root %d has a parent", r)
		}
		if _, dup := seen[r]; dup {
			return fmt.Errorf("core: duplicate root %d", r)
		}
		seen[r] = struct{}{}
	}
	// A walk from the roots in list order must meet the nodes in storage
	// order: PrunedView emits kept nodes by ascending ID and relies on it.
	next, stack := NodeID(0), make([]NodeID, 0, 64)
	for i := len(ix.Roots) - 1; i >= 0; i-- {
		stack = append(stack, ix.Roots[i])
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id != next {
			return fmt.Errorf("core: node %d not in pre-order: the walk from the roots reaches it at %d", id, next)
		}
		next++
		for i := len(ix.Nodes[id].Children) - 1; i >= 0; i-- {
			stack = append(stack, ix.Nodes[id].Children[i])
		}
	}
	if int(next) != len(ix.Nodes) {
		return fmt.Errorf("core: %d nodes unreachable from the roots", len(ix.Nodes)-int(next))
	}
	return nil
}
