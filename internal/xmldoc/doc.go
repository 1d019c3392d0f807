// Package xmldoc provides the XML document model used throughout the
// broadcast system: element trees, parsing, serialisation and the label-path
// view that DataGuides and air indexes are built from.
//
// The model is deliberately minimal — elements, character data and document
// identity — because the ICDCS'09 two-tier air index operates purely on the
// label-path structure of documents. Attributes and processing instructions
// are parsed and discarded.
package xmldoc

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// DocID identifies a document within a collection. The paper allocates two
// bytes per document identifier on air, which this type mirrors.
type DocID uint16

// A request's outstanding result documents are kept as one []DocID, sorted
// ascending without duplicates, from submission to retirement; the three
// helpers below work on that form and keep it.

// HasID reports whether the sorted set holds id.
func HasID(set []DocID, id DocID) bool {
	_, ok := slices.BinarySearch(set, id)
	return ok
}

// InsertID adds id to the sorted set in place, unless it is already there.
func InsertID(set []DocID, id DocID) []DocID {
	if i, ok := slices.BinarySearch(set, id); !ok {
		set = slices.Insert(set, i, id)
	}
	return set
}

// RemoveID drops id from the sorted set in place, if it is there.
func RemoveID(set []DocID, id DocID) []DocID {
	if i, ok := slices.BinarySearch(set, id); ok {
		set = slices.Delete(set, i, i+1)
	}
	return set
}

// Node is a single element node in a document tree.
type Node struct {
	// Label is the element name.
	Label string
	// Text is the concatenated character data directly under this element.
	Text string
	// Children are the child elements in document order.
	Children []*Node
}

// El constructs an element node with the given children. It is a convenience
// for building documents in code and tests.
func El(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// TextEl constructs a leaf element carrying character data.
func TextEl(label, text string) *Node {
	return &Node{Label: label, Text: text}
}

// NumNodes reports the number of element nodes in the subtree rooted at n.
func (n *Node) NumNodes() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.NumNodes()
	}
	return total
}

// Depth reports the maximum element depth of the subtree rooted at n, where a
// leaf element has depth 1.
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Child returns the first child with the given label, or nil.
func (n *Node) Child(label string) *Node {
	for _, c := range n.Children {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// Document is one XML document with a stable identity in a collection.
type Document struct {
	ID   DocID
	Root *Node

	// size caches the serialised length; 0 means "not yet computed".
	size int
}

// NewDocument wraps a root element as a document with the given identity.
func NewDocument(id DocID, root *Node) *Document {
	return &Document{ID: id, Root: root}
}

// Size reports the serialised byte length of the document. The result is
// cached; mutating the tree after the first call yields stale sizes, so
// documents are treated as immutable once placed in a Collection.
func (d *Document) Size() int {
	if d.size == 0 {
		d.size = len(d.Marshal())
	}
	return d.size
}

// Labels returns the sorted set of distinct element labels in the document.
func (d *Document) Labels() []string {
	set := make(map[string]struct{})
	var walk func(*Node)
	walk = func(n *Node) {
		set[n.Label] = struct{}{}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if d.Root != nil {
		walk(d.Root)
	}
	labels := make([]string, 0, len(set))
	for l := range set {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// WalkPaths visits every element of the document in pre-order together with
// its root-to-element label path. The callback must not retain the path
// slice, which is reused between invocations.
func (d *Document) WalkPaths(visit func(path []string, n *Node)) {
	if d.Root == nil {
		return
	}
	path := make([]string, 0, 16)
	var walk func(*Node)
	walk = func(n *Node) {
		path = append(path, n.Label)
		visit(path, n)
		for _, c := range n.Children {
			walk(c)
		}
		path = path[:len(path)-1]
	}
	walk(d.Root)
}

// UniquePaths returns the set of distinct label paths of the document, each
// encoded with PathKey, in sorted order. This is exactly the node set of the
// document's strong DataGuide.
func (d *Document) UniquePaths() []string {
	set := make(map[string]struct{})
	d.WalkPaths(func(path []string, _ *Node) {
		set[PathKey(path)] = struct{}{}
	})
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// PathKey encodes a label path as a canonical string, e.g. ["a","b"] → "/a/b".
func PathKey(path []string) string {
	if len(path) == 0 {
		return "/"
	}
	var b strings.Builder
	for _, step := range path {
		b.WriteByte('/')
		b.WriteString(step)
	}
	return b.String()
}

// SplitPathKey is the inverse of PathKey.
func SplitPathKey(key string) []string {
	if key == "" || key == "/" {
		return nil
	}
	return strings.Split(strings.TrimPrefix(key, "/"), "/")
}

// Collection is an immutable set of documents the server broadcasts from.
type Collection struct {
	docs []*Document
	byID map[DocID]*Document
}

// NewCollection builds a collection from documents. Document IDs must be
// unique; a duplicate ID is reported as an error.
func NewCollection(docs []*Document) (*Collection, error) {
	byID := make(map[DocID]*Document, len(docs))
	for _, d := range docs {
		if _, dup := byID[d.ID]; dup {
			return nil, fmt.Errorf("xmldoc: duplicate document id %d", d.ID)
		}
		byID[d.ID] = d
	}
	cp := make([]*Document, len(docs))
	copy(cp, docs)
	return &Collection{docs: cp, byID: byID}, nil
}

// Len reports the number of documents.
func (c *Collection) Len() int { return len(c.docs) }

// Docs returns the documents in collection order. Callers must not mutate
// the returned slice.
func (c *Collection) Docs() []*Document { return c.docs }

// ByID returns the document with the given ID, or nil if absent.
func (c *Collection) ByID(id DocID) *Document { return c.byID[id] }

// TotalSize reports the summed serialised size of all documents in bytes.
func (c *Collection) TotalSize() int {
	total := 0
	for _, d := range c.docs {
		total += d.Size()
	}
	return total
}

// IDs returns all document IDs in collection order.
func (c *Collection) IDs() []DocID {
	ids := make([]DocID, len(c.docs))
	for i, d := range c.docs {
		ids[i] = d.ID
	}
	return ids
}
