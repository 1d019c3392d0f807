package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// paperCollection builds the five documents of the paper's running example
// (Fig. 2), reconstructed from its query/answer table.
func paperCollection(t *testing.T) *xmldoc.Collection {
	t.Helper()
	docs := []*xmldoc.Document{
		xmldoc.NewDocument(1, xmldoc.El("a", xmldoc.El("b", xmldoc.El("a"), xmldoc.El("c")))),
		xmldoc.NewDocument(2, xmldoc.El("a",
			xmldoc.El("b", xmldoc.El("a"), xmldoc.El("c")),
			xmldoc.El("c", xmldoc.El("b")))),
		xmldoc.NewDocument(3, xmldoc.El("a", xmldoc.El("b"), xmldoc.El("c"))),
		xmldoc.NewDocument(4, xmldoc.El("a", xmldoc.El("c", xmldoc.El("a")))),
		xmldoc.NewDocument(5, xmldoc.El("a", xmldoc.El("b"), xmldoc.El("c", xmldoc.El("a")))),
	}
	c, err := xmldoc.NewCollection(docs)
	if err != nil {
		t.Fatalf("NewCollection: %v", err)
	}
	return c
}

func paperCI(t *testing.T) *Index {
	t.Helper()
	ix, err := BuildCI(paperCollection(t), DefaultSizeModel())
	if err != nil {
		t.Fatalf("BuildCI: %v", err)
	}
	if err := ix.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return ix
}

func TestBuildCIPaperExample(t *testing.T) {
	ix := paperCI(t)
	// DFS pre-order over the merged guide: /a, /a/b, /a/b/a, /a/b/c, /a/c,
	// /a/c/a, /a/c/b.
	wantPaths := []string{"/a", "/a/b", "/a/b/a", "/a/b/c", "/a/c", "/a/c/a", "/a/c/b"}
	if ix.NumNodes() != len(wantPaths) {
		t.Fatalf("NumNodes() = %d, want %d", ix.NumNodes(), len(wantPaths))
	}
	for i, want := range wantPaths {
		if got := xmldoc.PathKey(ix.PathOf(NodeID(i))); got != want {
			t.Errorf("node %d path = %s, want %s", i, got, want)
		}
	}
	// Attachments at maximal paths; d2 appears exactly three times (§3.3).
	// /a/b:{3,5} /a/b/a:{1,2} /a/b/c:{1,2} /a/c:{3} /a/c/a:{4,5} /a/c/b:{2}.
	if got := ix.NumAttachments(); got != 10 {
		t.Errorf("NumAttachments() = %d, want 10", got)
	}
	count := 0
	for i := range ix.Nodes {
		for _, d := range ix.Nodes[i].Docs {
			if d == 2 {
				count++
			}
		}
	}
	if count != 3 {
		t.Errorf("d2 attached %d times, want 3", count)
	}
	if got := ix.DocIDs(); !reflect.DeepEqual(got, []xmldoc.DocID{1, 2, 3, 4, 5}) {
		t.Errorf("DocIDs() = %v", got)
	}
}

func TestNodeKinds(t *testing.T) {
	ix := paperCI(t)
	root := ix.Roots[0]
	if got := ix.Nodes[root].Kind(); got != KindRoot {
		t.Errorf("root kind = %v", got)
	}
	b := ix.FindPath([]string{"a", "b"})
	if got := ix.Nodes[b].Kind(); got != KindInternal {
		t.Errorf("internal kind = %v", got)
	}
	leaf := ix.FindPath([]string{"a", "b", "a"})
	if got := ix.Nodes[leaf].Kind(); got != KindLeaf {
		t.Errorf("leaf kind = %v", got)
	}
	// Kind string coverage.
	for k, want := range map[NodeKind]string{KindRoot: "root", KindInternal: "internal", KindLeaf: "leaf", NodeKind(9): "NodeKind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestNodeSize(t *testing.T) {
	m := DefaultSizeModel()
	n := Node{Children: []NodeID{1, 2}, Docs: []xmldoc.DocID{7, 8, 9}}
	// one-tier: flag 2 + 2*(4+4) + 3*(2+4) = 2 + 16 + 18 = 36
	if got := n.Size(m, OneTier); got != 36 {
		t.Errorf("one-tier size = %d, want 36", got)
	}
	// first tier: flag 2 + 16 + 3*2 = 24
	if got := n.Size(m, FirstTier); got != 24 {
		t.Errorf("first-tier size = %d, want 24", got)
	}
}

func TestIndexSizeTwoTierSmaller(t *testing.T) {
	ix := paperCI(t)
	one := ix.Size(OneTier)
	first := ix.Size(FirstTier)
	if first >= one {
		t.Errorf("first-tier size %d not smaller than one-tier %d", first, one)
	}
	// Exactly PointerBytes saved per attachment.
	want := one - ix.NumAttachments()*ix.Model.PointerBytes
	if first != want {
		t.Errorf("first-tier size = %d, want %d", first, want)
	}
}

func TestFindPathAndSubtreeDocs(t *testing.T) {
	ix := paperCI(t)
	tests := []struct {
		path []string
		want []xmldoc.DocID
	}{
		{[]string{"a", "b", "a"}, []xmldoc.DocID{1, 2}},
		{[]string{"a", "b"}, []xmldoc.DocID{1, 2, 3, 5}},
		{[]string{"a", "c"}, []xmldoc.DocID{2, 3, 4, 5}},
		{[]string{"a"}, []xmldoc.DocID{1, 2, 3, 4, 5}},
	}
	for _, tt := range tests {
		id := ix.FindPath(tt.path)
		if id == NoNode {
			t.Fatalf("FindPath(%v) = NoNode", tt.path)
		}
		if got := subtreeDocs(ix, id); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("subtreeDocs(%v) = %v, want %v", tt.path, got, tt.want)
		}
	}
	if got := ix.FindPath([]string{"a", "zz"}); got != NoNode {
		t.Errorf("FindPath(missing) = %d, want NoNode", got)
	}
	if got := ix.FindPath(nil); got != NoNode {
		t.Errorf("FindPath(nil) = %d, want NoNode", got)
	}
	if got := ix.FindPath([]string{"zz"}); got != NoNode {
		t.Errorf("FindPath(bad root) = %d, want NoNode", got)
	}
}

func TestLookupPaperQueries(t *testing.T) {
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
		{"/zzz", nil},
	}
	for _, tt := range tests {
		t.Run(tt.expr, func(t *testing.T) {
			res := ix.Lookup(xpath.MustParse(tt.expr))
			if !reflect.DeepEqual(res.Docs, tt.want) {
				t.Errorf("Lookup(%s).Docs = %v, want %v", tt.expr, res.Docs, tt.want)
			}
		})
	}
}

func TestLookupVisitedIsSelective(t *testing.T) {
	ix := paperCI(t)
	// /a/b/a must not read the /a/c subtree: visited = a, b, b/a.
	res := ix.Lookup(xpath.MustParse("/a/b/a"))
	if len(res.Visited) != 3 {
		t.Errorf("visited %d nodes, want 3 (%v)", len(res.Visited), res.Visited)
	}
	// /a/b accepts at /a/b and must then read its whole subtree: a, b, b/a,
	// b/c = 4 nodes, and never /a/c.
	res = ix.Lookup(xpath.MustParse("/a/b"))
	if len(res.Visited) != 4 {
		t.Errorf("visited %d nodes, want 4 (%v)", len(res.Visited), res.Visited)
	}
	for _, id := range res.Visited {
		if xmldoc.PathKey(ix.PathOf(id)) == "/a/c" {
			t.Error("lookup for /a/b read /a/c")
		}
	}
}

func TestPrunePaperExample(t *testing.T) {
	ix := paperCI(t)
	// §3.2: Q = {/a/b, /a/b/c} keeps only n1 (/a), n2 (/a/b), n5 (/a/b/c).
	queries := []xpath.Path{xpath.MustParse("/a/b"), xpath.MustParse("/a/b/c")}
	pci, stats, err := ix.Prune(queries)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if err := pci.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantPaths := []string{"/a", "/a/b", "/a/b/c"}
	if pci.NumNodes() != len(wantPaths) {
		t.Fatalf("PCI has %d nodes, want %d", pci.NumNodes(), len(wantPaths))
	}
	for i, want := range wantPaths {
		if got := xmldoc.PathKey(pci.PathOf(NodeID(i))); got != want {
			t.Errorf("node %d path = %s, want %s", i, got, want)
		}
	}
	if stats.NodesBefore != 7 || stats.NodesAfter != 3 || stats.MatchedNodes != 2 {
		t.Errorf("stats = %+v", stats)
	}
	// Requested docs = answers of /a/b ∪ /a/b/c = {1,2,3,5}; doc 4 dropped.
	if stats.DocsRequested != 4 {
		t.Errorf("DocsRequested = %d, want 4", stats.DocsRequested)
	}
	if got := pci.DocIDs(); !reflect.DeepEqual(got, []xmldoc.DocID{1, 2, 3, 5}) {
		t.Errorf("PCI DocIDs = %v, want [1 2 3 5]", got)
	}
	// Orphaned attachment of /a/b/a (docs 1, 2) re-attached at /a/b.
	b := pci.FindPath([]string{"a", "b"})
	if got := pci.Nodes[b].Docs; !reflect.DeepEqual(got, []xmldoc.DocID{1, 2, 3, 5}) {
		t.Errorf("docs at /a/b = %v, want [1 2 3 5]", got)
	}
	// Pruning is transparent: both pending queries answer identically.
	for _, q := range queries {
		want := ix.Lookup(q).Docs
		got := pci.Lookup(q).Docs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("PCI lookup %s = %v, want %v", q, got, want)
		}
	}
}

// TestPrunedViewOutputs walks a view on the running example through both
// ways an Update produces its PCI, checking every step against the reference
// prune. Adding /a/b to /a/b/a matches a node that was already kept (as
// /a/b/a's parent) and requests documents 3 and 5: the kept set stands but
// attachments change, so the PCI is rebuilt. /*/b then matches nothing new:
// the previous PCI, reused. /a/c keeps a new node: a rebuild.
func TestPrunedViewOutputs(t *testing.T) {
	ix := paperCI(t)
	view := NewPrunedView(1)
	var queries []xpath.Path
	var prev *Index
	update := func(label string) (reused bool) {
		t.Helper()
		got, delta, err := view.Update(ix, queries)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats := referencePrune(ix, queries)
		if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Roots, want.Roots) || delta.Stats != wantStats {
			t.Fatalf("%s: PCI %+v (%+v), reference %+v (%+v)", label, got.Nodes, delta.Stats, want.Nodes, wantStats)
		}
		reused, prev = got == prev, got
		return reused
	}
	for _, step := range []struct {
		add    string
		reused bool
	}{{"/a/b/a", false}, {"/a/b", false}, {"/*/b", true}, {"/a/c", false}} {
		queries = append(queries, xpath.MustParse(step.add))
		if got := update("+" + step.add); got != step.reused {
			t.Errorf("+%s: PCI reused = %v, want %v", step.add, got, step.reused)
		}
	}

	// The same on random drift over the example's query table: both outputs
	// occur.
	pool := []string{"/a/b/a", "/a/c/a", "/a//c", "/a/b", "/a/c/*", "//a", "/a//a", "//b", "//c//b", "/*/*/a", "/zzz"}
	rng := rand.New(rand.NewSource(1))
	in := make([]bool, len(pool))
	outputs := map[bool]int{}
	for step := 0; step < 300; step++ {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			i := rng.Intn(len(pool))
			in[i] = !in[i]
		}
		queries = queries[:0]
		for i, q := range pool {
			if in[i] {
				queries = append(queries, xpath.MustParse(q))
			}
		}
		outputs[update(fmt.Sprintf("drift step %d %v", step, queries))]++
	}
	if outputs[false] == 0 || outputs[true] == 0 {
		t.Errorf("drift: %d rebuilds, %d reuses; want both", outputs[false], outputs[true])
	}
}

func TestPruneEmptyQuerySet(t *testing.T) {
	ix := paperCI(t)
	pci, stats, err := ix.Prune(nil)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if pci.NumNodes() != 0 || len(pci.Roots) != 0 {
		t.Errorf("empty query set should prune everything: %d nodes", pci.NumNodes())
	}
	if stats.DocsRequested != 0 || stats.MatchedNodes != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if err := pci.Validate(); err != nil {
		t.Errorf("empty PCI invalid: %v", err)
	}
}

func TestPruneUnmatchedQueryDies(t *testing.T) {
	ix := paperCI(t)
	pci, _, err := ix.Prune([]xpath.Path{xpath.MustParse("/nope/nothing")})
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if pci.NumNodes() != 0 {
		t.Errorf("unmatched query kept %d nodes", pci.NumNodes())
	}
}

func TestBuildCIBadModel(t *testing.T) {
	if _, err := BuildCI(paperCollection(t), SizeModel{}); err == nil {
		t.Error("BuildCI with zero model succeeded, want error")
	}
}

func TestTierAndModelHelpers(t *testing.T) {
	m := DefaultSizeModel()
	if m.EntryBytes() != 8 {
		t.Errorf("EntryBytes = %d, want 8", m.EntryBytes())
	}
	if m.DocTupleBytes(OneTier) != 6 || m.DocTupleBytes(FirstTier) != 2 {
		t.Error("DocTupleBytes wrong")
	}
	if m.SecondTierEntryBytes() != 6 {
		t.Errorf("SecondTierEntryBytes = %d, want 6", m.SecondTierEntryBytes())
	}
	if OneTier.String() != "one-tier" || FirstTier.String() != "first-tier" {
		t.Error("tier strings wrong")
	}
	if got := Tier(9).String(); got != "Tier(9)" {
		t.Errorf("unknown tier = %q", got)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	fresh := func() *Index {
		ix, err := BuildCI(paperCollection(t), DefaultSizeModel())
		if err != nil {
			t.Fatalf("BuildCI: %v", err)
		}
		return ix
	}
	tests := []struct {
		name    string
		corrupt func(*Index)
	}{
		{"bad id", func(ix *Index) { ix.Nodes[2].ID = 5 }},
		{"parent after child", func(ix *Index) { ix.Nodes[1].Parent = 3 }},
		{"dangling child", func(ix *Index) { ix.Nodes[0].Children[0] = 99 }},
		{"child backlink", func(ix *Index) {
			ix.Nodes[1].Parent = 0
			ix.Nodes[0].Children = []NodeID{1}
			ix.Nodes[1].Children = nil
			ix.Nodes[2].Parent = 0
		}},
		{"unsorted docs", func(ix *Index) { ix.Nodes[2].Docs = []xmldoc.DocID{2, 1} }},
		{"root with parent", func(ix *Index) { ix.Roots = append(ix.Roots, 1) }},
		{"duplicate root", func(ix *Index) { ix.Roots = append(ix.Roots, ix.Roots[0]) }},
		{"out of range root", func(ix *Index) { ix.Roots[0] = 99 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ix := fresh()
			tt.corrupt(ix)
			if err := ix.Validate(); err == nil {
				t.Error("Validate passed on corrupted index")
			}
		})
	}
}

// The prune emits kept nodes in ID order, so Validate must refuse an index
// whose children are label-sorted but not stored in DFS pre-order; the same
// tree stored in pre-order passes.
func TestValidateRejectsNonPreorder(t *testing.T) {
	node := func(id, parent NodeID, label string, children ...NodeID) Node {
		return Node{ID: id, Parent: parent, Label: label, Children: children}
	}
	for _, tt := range []struct {
		name  string
		nodes []Node
		roots []NodeID
		ok    bool
	}{
		{"children descending", []Node{node(0, NoNode, "r", 2, 1), node(1, 0, "b"), node(2, 0, "a")}, []NodeID{0}, false},
		{"children ascending", []Node{node(0, NoNode, "r", 1, 2), node(1, 0, "a"), node(2, 0, "b")}, []NodeID{0}, true},
		{"breadth-first", []Node{node(0, NoNode, "r", 1, 2), node(1, 0, "a", 3), node(2, 0, "b"), node(3, 1, "c")}, []NodeID{0}, false},
		{"roots descending", []Node{node(0, NoNode, "b"), node(1, NoNode, "a")}, []NodeID{1, 0}, false},
		{"root missing", []Node{node(0, NoNode, "a"), node(1, NoNode, "b")}, []NodeID{0}, false},
	} {
		ix := &Index{Nodes: tt.nodes, Roots: tt.roots, Model: DefaultSizeModel()}
		if err := ix.Validate(); (err == nil) != tt.ok {
			t.Errorf("%s: Validate = %v, want ok = %v", tt.name, err, tt.ok)
		}
	}
}

// An -index-enc flag value parses through UnmarshalText, the inverse of
// String; the empty string is the default node layout.
func TestIndexEncodingText(t *testing.T) {
	for _, e := range []IndexEncoding{EncodingNode, EncodingSuccinct} {
		var got IndexEncoding
		if err := got.UnmarshalText([]byte(e.String())); err != nil || got != e {
			t.Errorf("UnmarshalText(%q) = %v, %v", e.String(), got, err)
		}
	}
	got := EncodingSuccinct
	if err := got.UnmarshalText(nil); err != nil || got != EncodingNode {
		t.Errorf("UnmarshalText(\"\") = %v, %v, want node", got, err)
	}
	if err := got.UnmarshalText([]byte("bp")); err == nil || !strings.Contains(err.Error(), "unknown index encoding") {
		t.Errorf("UnmarshalText(\"bp\") error = %v, want an unknown-encoding error", err)
	}
}
