package dataguide

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
)

func dynDocs(t *testing.T, n int, seed int64) []*xmldoc.Document {
	t.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: n, Seed: seed, MaxDepth: 7})
	if err != nil {
		t.Fatalf("Documents: %v", err)
	}
	return c.Docs()
}

func mergeOf(t *testing.T, docs []*xmldoc.Document) *Forest {
	t.Helper()
	c, err := xmldoc.NewCollection(docs)
	if err != nil {
		t.Fatalf("NewCollection: %v", err)
	}
	return Merge(c)
}

func TestAddEquivalentToMerge(t *testing.T) {
	docs := dynDocs(t, 8, 31)
	incremental := &Forest{}
	for _, d := range docs {
		incremental.Add(d)
	}
	if !incremental.Equal(mergeOf(t, docs)) {
		t.Error("incremental adds differ from batch merge")
	}
}

func TestRemoveInvertsAdd(t *testing.T) {
	docs := dynDocs(t, 6, 37)
	f := mergeOf(t, docs)
	// Remove the third document; must equal the merge without it.
	victim := docs[2]
	if err := f.Remove(victim); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	rest := append(append([]*xmldoc.Document(nil), docs[:2]...), docs[3:]...)
	if !f.Equal(mergeOf(t, rest)) {
		t.Error("forest after removal differs from merge of the rest")
	}
	// Removing again must fail (attachment gone), leaving the forest intact.
	before := mergeOf(t, rest)
	if err := f.Remove(victim); err == nil {
		t.Error("double removal succeeded")
	}
	if !f.Equal(before) {
		t.Error("failed removal mutated the forest")
	}
}

func TestRemoveAllEmptiesForest(t *testing.T) {
	docs := dynDocs(t, 4, 41)
	f := mergeOf(t, docs)
	for _, d := range docs {
		if err := f.Remove(d); err != nil {
			t.Fatalf("Remove(%d): %v", d.ID, err)
		}
	}
	if len(f.Roots) != 0 || f.NumNodes() != 0 {
		t.Errorf("forest not empty after removing everything: %d nodes", f.NumNodes())
	}
}

func TestRemoveUnknownRoot(t *testing.T) {
	f := mergeOf(t, dynDocs(t, 2, 43))
	alien := xmldoc.NewDocument(99, xmldoc.El("alienroot"))
	if err := f.Remove(alien); err == nil {
		t.Error("removal of unknown root succeeded")
	}
}

// TestQuickDynamicSequenceEquivalence: any interleaving of adds and removes
// leaves the forest identical to a batch merge of the surviving documents —
// the incremental maintenance invariant.
func TestQuickDynamicSequenceEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 10, Seed: seed, MaxDepth: 6})
		if err != nil {
			return false
		}
		docs := c.Docs()
		forest := &Forest{}
		present := make(map[xmldoc.DocID]*xmldoc.Document)
		for op := 0; op < 30; op++ {
			d := docs[r.Intn(len(docs))]
			if _, in := present[d.ID]; in {
				if err := forest.Remove(d); err != nil {
					return false
				}
				delete(present, d.ID)
			} else {
				forest.Add(d)
				present[d.ID] = d
			}
		}
		var survivors []*xmldoc.Document
		for _, d := range docs {
			if _, in := present[d.ID]; in {
				survivors = append(survivors, d)
			}
		}
		coll, err := xmldoc.NewCollection(survivors)
		if err != nil {
			return false
		}
		return forest.Equal(Merge(coll))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// BenchmarkForestAdd adds 100 NITF documents, one at a time, to an empty
// forest: the live server's path.
func BenchmarkForestAdd(b *testing.B) {
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var f Forest
		for _, d := range c.Docs() {
			f.Add(d)
		}
	}
}
