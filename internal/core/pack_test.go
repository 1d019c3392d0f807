package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
)

func TestPackBasics(t *testing.T) {
	ix := paperCI(t)
	p := ix.Pack(OneTier)
	if p.Tier != OneTier {
		t.Errorf("Tier = %v", p.Tier)
	}
	if p.StreamBytes < ix.Size(OneTier) {
		t.Errorf("StreamBytes %d below logical size %d", p.StreamBytes, ix.Size(OneTier))
	}
	if p.NumPackets != (p.StreamBytes+ix.Model.PacketBytes-1)/ix.Model.PacketBytes {
		t.Errorf("NumPackets inconsistent: %d for %d bytes", p.NumPackets, p.StreamBytes)
	}
	if p.AirBytes() != p.NumPackets*ix.Model.PacketBytes {
		t.Errorf("AirBytes = %d", p.AirBytes())
	}
	// Offsets strictly increase in DFS order.
	for i := 1; i < len(p.NodeOffsets); i++ {
		if p.NodeOffsets[i] < p.NodeOffsets[i-1]+p.NodeSizes[i-1] {
			t.Fatalf("node %d overlaps node %d", i, i-1)
		}
	}
}

func TestPackNoBoundaryCrossingForSmallNodes(t *testing.T) {
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 30, Seed: 11})
	if err != nil {
		t.Fatalf("Documents: %v", err)
	}
	ix, err := BuildCI(c, DefaultSizeModel())
	if err != nil {
		t.Fatalf("BuildCI: %v", err)
	}
	for _, tier := range []Tier{OneTier, FirstTier} {
		p := ix.Pack(tier)
		pb := ix.Model.PacketBytes
		for i := range ix.Nodes {
			if p.NodeSizes[i] > pb {
				continue // oversized nodes legitimately span packets
			}
			start := p.NodeOffsets[i]
			end := start + p.NodeSizes[i]
			if start/pb != (end-1)/pb {
				t.Fatalf("tier %v: node %d [%d,%d) crosses packet boundary", tier, i, start, end)
			}
			first, last := p.PacketRange(NodeID(i))
			if first != last {
				t.Fatalf("tier %v: PacketRange(%d) = [%d,%d] for single-packet node", tier, i, first, last)
			}
		}
	}
}

func TestPackOversizedNodeSpans(t *testing.T) {
	// One node with many documents attached: size far beyond one packet.
	docs := make([]*xmldoc.Document, 60)
	for i := range docs {
		docs[i] = xmldoc.NewDocument(xmldoc.DocID(i+1), xmldoc.El("a", xmldoc.El("b")))
	}
	c, err := xmldoc.NewCollection(docs)
	if err != nil {
		t.Fatalf("NewCollection: %v", err)
	}
	ix, err := BuildCI(c, DefaultSizeModel())
	if err != nil {
		t.Fatalf("BuildCI: %v", err)
	}
	b := ix.FindPath([]string{"a", "b"})
	if size := ix.Nodes[b].Size(ix.Model, OneTier); size <= ix.Model.PacketBytes {
		t.Fatalf("test setup: node size %d not oversized", size)
	}
	p := ix.Pack(OneTier)
	first, last := p.PacketRange(b)
	if last <= first {
		t.Errorf("oversized node occupies [%d,%d], want a span", first, last)
	}
	if got := p.PacketsFor([]NodeID{b}); got != last-first+1 {
		t.Errorf("PacketsFor = %d, want %d", got, last-first+1)
	}
}

func TestPacketsForDistinct(t *testing.T) {
	ix := paperCI(t)
	p := ix.Pack(OneTier)
	all := make([]NodeID, ix.NumNodes())
	for i := range all {
		all[i] = NodeID(i)
	}
	if got := p.PacketsFor(all); got != p.NumPackets {
		t.Errorf("PacketsFor(all) = %d, want %d", got, p.NumPackets)
	}
	// Duplicates don't double count.
	dup := append(append([]NodeID(nil), all...), all...)
	if got := p.PacketsFor(dup); got != p.NumPackets {
		t.Errorf("PacketsFor(dup) = %d, want %d", got, p.NumPackets)
	}
	if got := p.BytesFor(all); got != p.NumPackets*ix.Model.PacketBytes {
		t.Errorf("BytesFor = %d", got)
	}
	if got := p.PacketsFor(nil); got != 0 {
		t.Errorf("PacketsFor(nil) = %d, want 0", got)
	}
}

func TestPackEmptyIndex(t *testing.T) {
	ix := &Index{Model: DefaultSizeModel()}
	p := ix.Pack(OneTier)
	if p.NumPackets != 0 || p.StreamBytes != 0 || p.AirBytes() != 0 {
		t.Errorf("empty packing = %+v", p)
	}
}

// TestQuickPackingInvariants checks layout invariants over random NITF
// collections and packet sizes.
func TestQuickPackingInvariants(t *testing.T) {
	f := func(seed int64, pktRaw uint8) bool {
		pb := 64 + int(pktRaw)%192 // packet size in [64, 256)
		c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 8, Seed: seed, MaxDepth: 7})
		if err != nil {
			return false
		}
		m := DefaultSizeModel()
		m.PacketBytes = pb
		ix, err := BuildCI(c, m)
		if err != nil {
			return false
		}
		for _, tier := range []Tier{OneTier, FirstTier} {
			p := ix.Pack(tier)
			offset := 0
			for i := range ix.Nodes {
				if p.NodeOffsets[i] < offset {
					return false
				}
				// Padding never exceeds one packet's worth.
				if p.NodeOffsets[i]-offset >= pb {
					return false
				}
				offset = p.NodeOffsets[i] + p.NodeSizes[i]
				if p.NodeSizes[i] != ix.Nodes[i].Size(m, tier) {
					return false
				}
				if p.NodeSizes[i] <= pb {
					if p.NodeOffsets[i]/pb != (offset-1)/pb {
						return false
					}
				}
			}
			if p.StreamBytes != offset {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickLookupMatchesReference: CI lookup answers equal the naive
// evaluator for random workloads (the index is accurate, §3.1), and a reused
// navigator reads exactly what the set-based reference navigation reads — the
// same answer (nil when empty), the same nodes in the same order, the same
// packets under either layout order — over the CI and over a PCI.
func TestQuickLookupMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 6, Seed: seed, MaxDepth: 7})
		if err != nil {
			return false
		}
		queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 8, MaxDepth: 6, WildcardProb: 0.35, Seed: seed + 1})
		if err != nil {
			return false
		}
		ix, err := BuildCI(c, DefaultSizeModel())
		if err != nil {
			return false
		}
		pci, _, err := ix.Prune(queries[:len(queries)/2])
		if err != nil {
			return false
		}
		for _, q := range queries {
			want := q.MatchingDocs(c)
			nav := NewNavigator(q)
			got := nav.Lookup(ix).Docs
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			for _, over := range []*Index{ix, pci, ix} {
				if !lookupMatchesReference(t, nav, over) {
					t.Logf("seed %d query %s", seed, q)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickPruningPreservesAnswers: for every pending query, the PCI answers
// exactly as the CI does, and the PCI never exceeds the CI in size.
func TestQuickPruningPreservesAnswers(t *testing.T) {
	f := func(seed int64) bool {
		c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 6, Seed: seed, MaxDepth: 7})
		if err != nil {
			return false
		}
		queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 10, MaxDepth: 5, WildcardProb: 0.3, Seed: seed + 2})
		if err != nil {
			return false
		}
		ix, err := BuildCI(c, DefaultSizeModel())
		if err != nil {
			return false
		}
		pci, stats, err := ix.Prune(queries)
		if err != nil || pci.Validate() != nil {
			return false
		}
		if stats.NodesAfter > stats.NodesBefore || pci.Size(OneTier) > ix.Size(OneTier) {
			return false
		}
		for _, q := range queries {
			want := ix.Lookup(q).Docs
			got := pci.Lookup(q).Docs
			if len(got) != len(want) {
				t.Logf("seed %d query %s: pci=%v ci=%v", seed, q, got, want)
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPackOrderedBFS(t *testing.T) {
	ix := paperCI(t)
	p := ix.PackOrdered(FirstTier, PackBFS)
	if p.Order != PackBFS {
		t.Errorf("Order = %v", p.Order)
	}
	// Every node has a distinct, non-overlapping extent.
	type span struct{ start, end int }
	var spans []span
	for i := range ix.Nodes {
		spans = append(spans, span{p.NodeOffsets[i], p.NodeOffsets[i] + p.NodeSizes[i]})
	}
	for i := range spans {
		for j := range spans {
			if i == j {
				continue
			}
			if spans[i].start < spans[j].end && spans[j].start < spans[i].end {
				t.Fatalf("nodes %d and %d overlap", i, j)
			}
		}
	}
	// BFS order: roots first, then depth-1 nodes, etc. The root must sit at
	// offset 0.
	if p.NodeOffsets[ix.Roots[0]] != 0 {
		t.Errorf("root offset = %d", p.NodeOffsets[ix.Roots[0]])
	}
	// A deepest node must come after every depth-1 node in BFS.
	leaf := ix.FindPath([]string{"a", "c", "b"})
	mid := ix.FindPath([]string{"a", "c"})
	if p.NodeOffsets[leaf] < p.NodeOffsets[mid] {
		t.Error("BFS put a depth-2 node before a depth-1 node")
	}
}

func TestPackOrderString(t *testing.T) {
	if PackDFS.String() != "dfs" || PackBFS.String() != "bfs" {
		t.Error("order strings wrong")
	}
	if got := PackOrder(9).String(); got != "PackOrder(9)" {
		t.Errorf("unknown order = %q", got)
	}
}
