// Package dataguide implements strong DataGuides (Goldman & Widom, VLDB'97)
// over the xmldoc tree model, and their RoXSum-style merge into the single
// combined guide the paper's Compact Index (CI) is built from.
//
// A strong DataGuide of a tree-shaped XML document is simply the trie of the
// document's distinct label paths: concise (every unique path appears once)
// and accurate (it encodes exactly the paths that exist). When guides of many
// documents are merged, each document is *attached* at the nodes that are
// maximal paths of that document — the leaves of its own guide — so that a
// document appears once per distinct maximal path. This matches the paper's
// running example, where document d2 (maximal paths /a/b/a, /a/b/c, /a/c/b)
// "appears three times in the CI index".
package dataguide

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/xmldoc"
)

// Guide is a node of a DataGuide trie. The node's label path (root to this
// node) is a distinct label path of the underlying document set.
type Guide struct {
	// Label is the element name of this trie node.
	Label string
	// Children are sub-guides with distinct labels, sorted by label for
	// deterministic construction and traversal.
	Children []*Guide
	// Docs lists the documents for which this node's path is maximal (a
	// leaf of that document's own guide), sorted by ID without duplicates.
	Docs []xmldoc.DocID
	// Refs counts the documents containing this path; it supports
	// incremental removal (Forest.Remove) — a node whose count drops to
	// zero no longer exists in any document and is pruned.
	Refs int
}

// Build constructs the strong DataGuide of a document and attaches the
// document's ID at every node whose path is maximal in the document. A nil
// root yields a nil guide.
func Build(d *xmldoc.Document) *Guide {
	if d.Root == nil {
		return nil
	}
	g := buildNode(d.Root.Label, []*xmldoc.Node{d.Root})
	g.attachAtLeaves(d.ID)
	return g
}

// buildNode merges a group of document nodes sharing the same label into one
// guide node, recursing over their children grouped by label: a stable sort
// on label groups them, each group in document order.
func buildNode(label string, group []*xmldoc.Node) *Guide {
	g := &Guide{Label: label, Refs: 1}
	var kids []*xmldoc.Node
	for _, n := range group {
		kids = append(kids, n.Children...)
	}
	slices.SortStableFunc(kids, func(a, b *xmldoc.Node) int { return strings.Compare(a.Label, b.Label) })
	for i := 0; i < len(kids); {
		j := i + 1
		for j < len(kids) && kids[j].Label == kids[i].Label {
			j++
		}
		g.Children = append(g.Children, buildNode(kids[i].Label, kids[i:j]))
		i = j
	}
	return g
}

func (g *Guide) attachAtLeaves(id xmldoc.DocID) {
	if len(g.Children) == 0 {
		g.Docs = []xmldoc.DocID{id}
		return
	}
	for _, c := range g.Children {
		c.attachAtLeaves(id)
	}
}

// NumNodes reports the number of nodes in the guide.
func (g *Guide) NumNodes() int {
	if g == nil {
		return 0
	}
	total := 1
	for _, c := range g.Children {
		total += c.NumNodes()
	}
	return total
}

// Child returns the sub-guide with the given label, or nil.
func (g *Guide) Child(label string) *Guide {
	// Children are sorted; a linear scan is fine at DataGuide fanouts.
	for _, c := range g.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// Walk visits every node in depth-first pre-order together with its label
// path. The path slice is reused between invocations and must not be
// retained.
func (g *Guide) Walk(visit func(path []string, node *Guide)) {
	if g == nil {
		return
	}
	path := make([]string, 0, 16)
	var walk func(*Guide)
	walk = func(n *Guide) {
		path = append(path, n.Label)
		visit(path, n)
		for _, c := range n.Children {
			walk(c)
		}
		path = path[:len(path)-1]
	}
	walk(g)
}

// Paths returns every node's path key in depth-first pre-order.
func (g *Guide) Paths() []string {
	var out []string
	g.Walk(func(path []string, _ *Guide) {
		out = append(out, xmldoc.PathKey(path))
	})
	return out
}

// Merge combines the DataGuides of all documents in the collection into one
// guide (the paper's combined DataGuide / RoXSum structure). Documents whose
// root labels differ merge under distinct roots; in that case Merge returns a
// synthetic forest holder only if needed — for the single-rooted collections
// used throughout the paper the result is the shared root node. A nil result
// means the collection is empty.
//
// Merge returns an error-free result by construction; malformed collections
// are impossible to represent in xmldoc.
func Merge(c *xmldoc.Collection) *Forest {
	return merge(buildGuides(c, 1))
}

// MergeParallel is Merge with the per-document guide construction — the
// dominant cost, independent per document — sharded across workers
// goroutines (runtime.GOMAXPROCS(0) when workers <= 0). The guides are then
// merged serially in collection order, so the result is identical to
// Merge's.
func MergeParallel(c *xmldoc.Collection, workers int) *Forest {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return merge(buildGuides(c, workers))
}

// buildGuides constructs each document's guide, in collection order.
func buildGuides(c *xmldoc.Collection, workers int) []*Guide {
	docs := c.Docs()
	guides := make([]*Guide, len(docs))
	if workers > len(docs) {
		workers = len(docs)
	}
	if workers <= 1 {
		for i, d := range docs {
			guides[i] = Build(d)
		}
		return guides
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				guides[i] = Build(docs[i])
			}
		}(w)
	}
	wg.Wait()
	return guides
}

// merge folds per-document guides into one forest, in slice order.
func merge(guides []*Guide) *Forest {
	f := &Forest{}
	for _, g := range guides {
		if g == nil {
			continue
		}
		if existing := f.Root(g.Label); existing != nil {
			mergeInto(existing, g)
		} else {
			f.Roots = append(f.Roots, g)
		}
	}
	sort.Slice(f.Roots, func(i, j int) bool { return f.Roots[i].Label < f.Roots[j].Label })
	return f
}

// Forest is a set of merged DataGuides, one per distinct document root label.
// Collections generated from a single schema have exactly one root.
type Forest struct {
	Roots []*Guide
}

// Root returns the merged guide with the given root label, or nil.
func (f *Forest) Root(label string) *Guide {
	for _, r := range f.Roots {
		if r.Label == label {
			return r
		}
	}
	return nil
}

// NumNodes reports the total node count over all roots.
func (f *Forest) NumNodes() int {
	total := 0
	for _, r := range f.Roots {
		total += r.NumNodes()
	}
	return total
}

// Walk visits every node of every root in depth-first pre-order.
func (f *Forest) Walk(visit func(path []string, node *Guide)) {
	for _, r := range f.Roots {
		r.Walk(visit)
	}
}

// mergeInto merges guide src into dst (same label), unioning document
// attachments, summing reference counts, and recursing over shared children.
func mergeInto(dst, src *Guide) {
	dst.Docs = unionIDs(dst.Docs, src.Docs)
	dst.Refs += src.Refs
	n := len(dst.Children)
	for _, sc := range src.Children {
		if dc := dst.Child(sc.Label); dc != nil {
			mergeInto(dc, sc)
			continue
		}
		dst.Children = append(dst.Children, sc)
	}
	if len(dst.Children) > n {
		sort.Slice(dst.Children, func(i, j int) bool { return dst.Children[i].Label < dst.Children[j].Label })
	}
}

// unionIDs returns the union of the sorted, duplicate-free sets a and b,
// sorted and duplicate-free. Merging documents in collection order, b is
// nearly always one ID above all of a's and is appended to a; otherwise the
// two are merged into a new slice.
func unionIDs(a, b []xmldoc.DocID) []xmldoc.DocID {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 || a[len(a)-1] < b[0] {
		return append(a, b...)
	}
	out := make([]xmldoc.DocID, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			out, a = append(out, a[0]), a[1:]
		case b[0] < a[0]:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0]), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}
