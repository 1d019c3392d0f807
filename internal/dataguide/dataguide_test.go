package dataguide

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
)

// paperDocs builds the five documents of the paper's running example (Fig. 2).
func paperDocs(t *testing.T) *xmldoc.Collection {
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

func TestBuildSingleDocument(t *testing.T) {
	// d1 has duplicate sibling paths: two /a/b children.
	d := xmldoc.NewDocument(1, xmldoc.El("a",
		xmldoc.El("b", xmldoc.El("a"), xmldoc.El("c")),
		xmldoc.El("b", xmldoc.El("a")),
	))
	g := Build(d)
	want := []string{"/a", "/a/b", "/a/b/a", "/a/b/c"}
	if got := g.Paths(); !reflect.DeepEqual(got, want) {
		t.Errorf("Paths() = %v, want %v", got, want)
	}
	// Maximal paths of the doc are /a/b/a and /a/b/c.
	if got := g.Child("b").Child("a").Docs; !reflect.DeepEqual(got, []xmldoc.DocID{1}) {
		t.Errorf("docs at /a/b/a = %v, want [1]", got)
	}
	if got := g.Child("b").Child("c").Docs; !reflect.DeepEqual(got, []xmldoc.DocID{1}) {
		t.Errorf("docs at /a/b/c = %v, want [1]", got)
	}
	if got := g.Docs; got != nil {
		t.Errorf("docs at /a = %v, want none", got)
	}
	if got := g.Child("b").Docs; got != nil {
		t.Errorf("docs at /a/b = %v, want none", got)
	}
}

func TestBuildNilRoot(t *testing.T) {
	if g := Build(&xmldoc.Document{ID: 1}); g != nil {
		t.Errorf("Build(nil root) = %v, want nil", g)
	}
	var g *Guide
	if g.NumNodes() != 0 {
		t.Error("nil guide NumNodes != 0")
	}
}

func TestMergePaperExample(t *testing.T) {
	f := Merge(paperDocs(t))
	if len(f.Roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(f.Roots))
	}
	g := f.Roots[0]
	// The paper's Fig. 3(b) CI has nine nodes for its Fig. 2 documents; our
	// reconstruction (from the query/answer table, since the figure is not
	// machine-readable) yields the seven distinct paths below. All answer
	// sets still match the paper's table (see core's
	// TestAnswersPaperExample).
	got := g.Paths()
	want := []string{"/a", "/a/b", "/a/b/a", "/a/b/c", "/a/c", "/a/c/a", "/a/c/b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Paths() = %v, want %v", got, want)
	}
	if g.NumNodes() != len(want) {
		t.Errorf("NumNodes() = %d, want %d", g.NumNodes(), len(want))
	}

	// Attachments:
	tests := []struct {
		path string
		want []xmldoc.DocID
	}{
		{"/a/b/a", []xmldoc.DocID{1, 2}},
		{"/a/b/c", []xmldoc.DocID{1, 2}},
		{"/a/c/b", []xmldoc.DocID{2}},
		{"/a/c/a", []xmldoc.DocID{4, 5}},
		{"/a/b", []xmldoc.DocID{3, 5}}, // maximal for d3 and d5
		{"/a/c", []xmldoc.DocID{3}},    // maximal for d3
		{"/a", nil},
	}
	for _, tt := range tests {
		node := findPath(g, tt.path)
		if node == nil {
			t.Fatalf("path %s missing", tt.path)
		}
		if !reflect.DeepEqual(node.Docs, tt.want) {
			t.Errorf("docs at %s = %v, want %v", tt.path, node.Docs, tt.want)
		}
	}

	// d2 appears exactly three times overall — the paper's §3.3 example.
	count := 0
	g.Walk(func(_ []string, n *Guide) {
		for _, id := range n.Docs {
			if id == 2 {
				count++
			}
		}
	})
	if count != 3 {
		t.Errorf("d2 appears %d times, want 3", count)
	}
}

func TestMergeDisjointRoots(t *testing.T) {
	docs := []*xmldoc.Document{
		xmldoc.NewDocument(1, xmldoc.El("a", xmldoc.El("x"))),
		xmldoc.NewDocument(2, xmldoc.El("b", xmldoc.El("y"))),
	}
	c, err := xmldoc.NewCollection(docs)
	if err != nil {
		t.Fatalf("NewCollection: %v", err)
	}
	f := Merge(c)
	if len(f.Roots) != 2 {
		t.Fatalf("got %d roots, want 2", len(f.Roots))
	}
	if f.Roots[0].Label != "a" || f.Roots[1].Label != "b" {
		t.Errorf("roots not sorted: %s, %s", f.Roots[0].Label, f.Roots[1].Label)
	}
	if f.Root("a") == nil || f.Root("b") == nil || f.Root("z") != nil {
		t.Error("Root lookup wrong")
	}
	if f.NumNodes() != 4 {
		t.Errorf("NumNodes() = %d, want 4", f.NumNodes())
	}
}

func findPath(g *Guide, key string) *Guide {
	labels := xmldoc.SplitPathKey(key)
	if len(labels) == 0 || g.Label != labels[0] {
		return nil
	}
	n := g
	for _, l := range labels[1:] {
		n = n.Child(l)
		if n == nil {
			return nil
		}
	}
	return n
}

func randomCollection(seed int64, n int) *xmldoc.Collection {
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: n, Seed: seed, MaxDepth: 8})
	if err != nil {
		panic(err)
	}
	return c
}

// TestQuickGuidePathsEqualDocPaths: the per-document guide's node set is
// exactly the document's distinct label paths.
func TestQuickGuidePathsEqualDocPaths(t *testing.T) {
	f := func(seed int64) bool {
		c := randomCollection(seed, 1)
		d := c.Docs()[0]
		g := Build(d)
		gp := append([]string(nil), g.Paths()...)
		dp := d.UniquePaths()
		if len(gp) != len(dp) {
			return false
		}
		set := make(map[string]struct{}, len(dp))
		for _, p := range dp {
			set[p] = struct{}{}
		}
		for _, p := range gp {
			if _, ok := set[p]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergedGuideIsUnion: the merged guide's node set is the union of
// the per-document path sets, and each document's attachments sit exactly at
// its own guide's leaves.
func TestQuickMergedGuideIsUnion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCollection(seed, 2+r.Intn(5))
		forest := Merge(c)
		union := make(map[string]struct{})
		for _, d := range c.Docs() {
			for _, p := range d.UniquePaths() {
				union[p] = struct{}{}
			}
		}
		var merged []string
		forest.Walk(func(path []string, _ *Guide) {
			merged = append(merged, xmldoc.PathKey(path))
		})
		if len(merged) != len(union) {
			return false
		}
		for _, p := range merged {
			if _, ok := union[p]; !ok {
				return false
			}
		}
		// Each doc is attached exactly at its own maximal paths.
		for _, d := range c.Docs() {
			own := Build(d)
			maximal := make(map[string]bool)
			own.Walk(func(path []string, n *Guide) {
				if len(n.Children) == 0 {
					maximal[xmldoc.PathKey(path)] = true
				}
			})
			got := make(map[string]bool)
			forest.Walk(func(path []string, n *Guide) {
				for _, id := range n.Docs {
					if id == d.ID {
						got[xmldoc.PathKey(path)] = true
					}
				}
			})
			if !reflect.DeepEqual(maximal, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// mapUnion is the union as a set: the reference unionIDs is held to.
func mapUnion(a, b []xmldoc.DocID) []xmldoc.DocID {
	set := make(map[xmldoc.DocID]struct{}, len(a)+len(b))
	for _, id := range a {
		set[id] = struct{}{}
	}
	for _, id := range b {
		set[id] = struct{}{}
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]xmldoc.DocID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// TestUnionIDsMatchesMapUnion: on random sorted sets — b above all of a,
// interleaved with it, overlapping it or equal to it — unionIDs is the set
// union, and the elements of both arguments stay as they were.
func TestUnionIDsMatchesMapUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomSet := func(n, span int) []xmldoc.DocID {
		var ids []xmldoc.DocID
		for _, id := range rng.Perm(span)[:n] {
			ids = append(ids, xmldoc.DocID(id))
		}
		slices.Sort(ids)
		return ids
	}
	for i := 0; i < 5000; i++ {
		span := 1 + rng.Intn(64)
		a, b := randomSet(rng.Intn(min(span, 12)+1), span), randomSet(rng.Intn(min(span, 12)+1), span)
		if i%3 == 0 && len(a) > 0 { // the common case: b's IDs follow a's
			for j := range b {
				b[j] += a[len(a)-1] + 1
			}
		}
		want := mapUnion(a, b)
		a0, b0 := slices.Clone(a), slices.Clone(b)
		got := unionIDs(a, b)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("unionIDs(%v, %v) = %v, want %v", a0, b0, got, want)
		}
		if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
			t.Fatalf("unionIDs(%v, %v) changed its arguments to %v, %v", a0, b0, a, b)
		}
	}
}

// mapBuildNode is buildNode grouping the children with a map and a sorted
// label list: the reference the stable-sort grouping is held to.
func mapBuildNode(label string, group []*xmldoc.Node) *Guide {
	g := &Guide{Label: label, Refs: 1}
	byLabel := make(map[string][]*xmldoc.Node)
	var order []string
	for _, n := range group {
		for _, c := range n.Children {
			if _, ok := byLabel[c.Label]; !ok {
				order = append(order, c.Label)
			}
			byLabel[c.Label] = append(byLabel[c.Label], c)
		}
	}
	slices.Sort(order)
	for _, childLabel := range order {
		g.Children = append(g.Children, mapBuildNode(childLabel, byLabel[childLabel]))
	}
	return g
}

// TestBuildMatchesMapGrouping: on NITF (recursive) and NASA documents, Build
// is the guide the map-based grouping builds, node for node, attachments
// included, and so is the merge of the documents' guides.
func TestBuildMatchesMapGrouping(t *testing.T) {
	for _, schema := range []*dtd.Schema{dtd.NITF(), dtd.NASA()} {
		c, err := gen.Documents(gen.DocConfig{Schema: schema, NumDocs: 60, Seed: 7, MaxDepth: 10})
		if err != nil {
			t.Fatal(err)
		}
		var want []*Guide
		for _, d := range c.Docs() {
			ref := mapBuildNode(d.Root.Label, []*xmldoc.Node{d.Root})
			ref.attachAtLeaves(d.ID)
			if got := Build(d); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s document %d: Build differs from the map-based grouping", schema.Name, d.ID)
			}
			want = append(want, ref)
		}
		if got := Merge(c); !reflect.DeepEqual(flatten(got), flatten(merge(want))) {
			t.Errorf("%s: Merge differs from the merge of the map-based guides", schema.Name)
		}
	}
}
