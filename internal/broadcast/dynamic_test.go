package broadcast

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func dynBuilder(t *testing.T) (*Builder, *xmldoc.Collection) {
	t.Helper()
	c, queries := testSetup(t)
	_ = queries
	b, err := NewBuilder(c, core.DefaultSizeModel(), TwoTierMode)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	return b, c
}

func TestBuilderAddDocument(t *testing.T) {
	b, c := dynBuilder(t)
	before := b.CI().NumNodes()
	fresh := xmldoc.NewDocument(9001, xmldoc.El("nitf",
		xmldoc.El("head", xmldoc.El("brandnewlabel"))))
	if err := b.AddDocument(fresh); err != nil {
		t.Fatalf("AddDocument: %v", err)
	}
	if b.NumDocs() != c.Len()+1 {
		t.Errorf("NumDocs = %d, want %d", b.NumDocs(), c.Len()+1)
	}
	// The CI gained the new path and answers queries for it.
	if b.CI().NumNodes() <= before {
		t.Error("CI did not grow after add")
	}
	q := xpath.MustParse("/nitf/head/brandnewlabel")
	if got := b.CI().Lookup(q).Docs; !reflect.DeepEqual(got, []xmldoc.DocID{9001}) {
		t.Errorf("lookup after add = %v", got)
	}
	// And it is schedulable in a cycle.
	cy, err := b.BuildCycle(0, 0, []xpath.Path{q}, []xmldoc.DocID{9001})
	if err != nil {
		t.Fatalf("BuildCycle: %v", err)
	}
	if got := cy.Index.Lookup(q).Docs; !reflect.DeepEqual(got, []xmldoc.DocID{9001}) {
		t.Errorf("cycle PCI lookup = %v", got)
	}
	// Duplicate IDs are rejected.
	if err := b.AddDocument(fresh); err == nil {
		t.Error("duplicate add succeeded")
	}
	if err := b.AddDocument(&xmldoc.Document{ID: 9002}); err == nil {
		t.Error("empty document added")
	}
}

func TestBuilderRemoveDocument(t *testing.T) {
	b, c := dynBuilder(t)
	victim := c.Docs()[0].ID
	if err := b.RemoveDocument(victim); err != nil {
		t.Fatalf("RemoveDocument: %v", err)
	}
	if b.NumDocs() != c.Len()-1 {
		t.Errorf("NumDocs = %d", b.NumDocs())
	}
	if b.DocByID(victim) != nil {
		t.Error("removed document still resolvable")
	}
	// No lookup over the maintained CI may return the removed document.
	q := xpath.MustParse("/nitf")
	for _, d := range b.CI().Lookup(q).Docs {
		if d == victim {
			t.Error("removed document still indexed")
		}
	}
	// The maintained CI equals a fresh build over the survivors.
	survivors, err := xmldoc.NewCollection(c.Docs()[1:])
	if err != nil {
		t.Fatalf("NewCollection: %v", err)
	}
	fresh, err := core.BuildCI(survivors, core.DefaultSizeModel())
	if err != nil {
		t.Fatalf("BuildCI: %v", err)
	}
	if b.CI().NumNodes() != fresh.NumNodes() || b.CI().NumAttachments() != fresh.NumAttachments() {
		t.Errorf("maintained CI (%d nodes, %d att) differs from rebuild (%d, %d)",
			b.CI().NumNodes(), b.CI().NumAttachments(), fresh.NumNodes(), fresh.NumAttachments())
	}
	// Planning the removed document now fails.
	if _, err := b.BuildCycle(0, 0, nil, []xmldoc.DocID{victim}); err == nil {
		t.Error("cycle planned a removed document")
	}
	if err := b.RemoveDocument(victim); err == nil {
		t.Error("double removal succeeded")
	}
}

// TestBuilderAccessorsTrackUpdates: NumDocs and DocByID are the builder's view
// of the live collection — they follow every add and remove, and a document
// re-added under a retired ID is the new one.
func TestBuilderAccessorsTrackUpdates(t *testing.T) {
	b, c := dynBuilder(t)
	for _, d := range c.Docs() {
		if b.DocByID(d.ID) != d {
			t.Fatalf("DocByID(%d) is not the constructor's document", d.ID)
		}
	}
	victim := c.Docs()[1]
	if err := b.RemoveDocument(victim.ID); err != nil {
		t.Fatalf("RemoveDocument: %v", err)
	}
	if b.NumDocs() != c.Len()-1 || b.DocByID(victim.ID) != nil {
		t.Errorf("after remove: NumDocs = %d, DocByID(%d) = %v", b.NumDocs(), victim.ID, b.DocByID(victim.ID))
	}
	for _, d := range c.Docs() {
		if d != victim && b.DocByID(d.ID) != d {
			t.Errorf("removing %d disturbed document %d", victim.ID, d.ID)
		}
	}
	again := xmldoc.NewDocument(victim.ID, xmldoc.El("nitf", xmldoc.El("readded")))
	if err := b.AddDocument(again); err != nil {
		t.Fatalf("re-add under a retired ID: %v", err)
	}
	if b.NumDocs() != c.Len() || b.DocByID(victim.ID) != again {
		t.Errorf("after re-add: NumDocs = %d, DocByID returns the old document: %v", b.NumDocs(), b.DocByID(victim.ID) == victim)
	}
}
