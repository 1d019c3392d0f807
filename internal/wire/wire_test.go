package wire

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
)

func paperCI(t *testing.T) *core.Index {
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
	ix, err := core.BuildCI(c, core.DefaultSizeModel())
	if err != nil {
		t.Fatalf("BuildCI: %v", err)
	}
	return ix
}

func TestCatalogRoundTrip(t *testing.T) {
	ix := paperCI(t)
	cat := BuildCatalog(ix)
	if cat.Len() != 3 { // a, b, c
		t.Fatalf("Len() = %d, want 3", cat.Len())
	}
	data, err := cat.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := DecodeCatalog(data)
	if err != nil {
		t.Fatalf("DecodeCatalog: %v", err)
	}
	for _, l := range []string{"a", "b", "c"} {
		id, ok := cat.ID(l)
		if !ok {
			t.Fatalf("ID(%q) missing", l)
		}
		gotL, ok := back.Label(id)
		if !ok || gotL != l {
			t.Errorf("round-trip label %q = %q", l, gotL)
		}
	}
	if _, ok := cat.ID("zzz"); ok {
		t.Error("ID(zzz) should be missing")
	}
	if _, ok := cat.Label(999); ok {
		t.Error("Label(999) should be missing")
	}
}

func TestCatalogDecodeErrors(t *testing.T) {
	if _, err := DecodeCatalog(nil); err == nil {
		t.Error("nil catalog decoded")
	}
	if _, err := DecodeCatalog([]byte{5, 0}); err == nil {
		t.Error("truncated catalog decoded")
	}
	if _, err := DecodeCatalog([]byte{1, 0, 9, 'a'}); err == nil {
		t.Error("truncated label decoded")
	}
}

func indexesEqual(a, b *core.Index) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Roots) != len(b.Roots) {
		return false
	}
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if x.Label != y.Label || x.Parent != y.Parent ||
			!reflect.DeepEqual(x.Children, y.Children) || !reflect.DeepEqual(x.Docs, y.Docs) {
			return false
		}
	}
	return reflect.DeepEqual(a.Roots, b.Roots)
}

func TestIndexRoundTripOneTier(t *testing.T) {
	ix := paperCI(t)
	p := ix.Pack(core.OneTier)
	cat := BuildCatalog(ix)
	offs := DocOffsets{1: 0, 3: 4096} // docs 2,4,5 not in cycle
	data, err := EncodeIndex(ix, p, cat, offs)
	if err != nil {
		t.Fatalf("EncodeIndex: %v", err)
	}
	if len(data) != p.StreamBytes {
		t.Fatalf("stream %d bytes, want %d", len(data), p.StreamBytes)
	}
	back, gotOffs, err := DecodeIndex(data, ix.Model, core.OneTier, cat)
	if err != nil {
		t.Fatalf("DecodeIndex: %v", err)
	}
	if err := ApplyRootLabels(back, RootLabels(ix)); err != nil {
		t.Fatalf("ApplyRootLabels: %v", err)
	}
	if !indexesEqual(ix, back) {
		t.Errorf("decoded index differs:\n%+v\nvs\n%+v", ix.Nodes, back.Nodes)
	}
	if !reflect.DeepEqual(gotOffs, offs) {
		t.Errorf("decoded offsets = %v, want %v", gotOffs, offs)
	}
}

func TestIndexRoundTripFirstTier(t *testing.T) {
	ix := paperCI(t)
	p := ix.Pack(core.FirstTier)
	cat := BuildCatalog(ix)
	data, err := EncodeIndex(ix, p, cat, nil)
	if err != nil {
		t.Fatalf("EncodeIndex: %v", err)
	}
	back, offs, err := DecodeIndex(data, ix.Model, core.FirstTier, cat)
	if err != nil {
		t.Fatalf("DecodeIndex: %v", err)
	}
	if offs != nil {
		t.Errorf("first tier returned offsets %v", offs)
	}
	if err := ApplyRootLabels(back, RootLabels(ix)); err != nil {
		t.Fatalf("ApplyRootLabels: %v", err)
	}
	if !indexesEqual(ix, back) {
		t.Error("decoded first-tier index differs")
	}
}

func TestEncodeIndexMismatchedPacking(t *testing.T) {
	ix := paperCI(t)
	p := ix.Pack(core.OneTier)
	p.NodeOffsets = p.NodeOffsets[:2]
	if _, err := EncodeIndex(ix, p, BuildCatalog(ix), nil); err == nil {
		t.Error("mismatched packing encoded")
	}
}

func TestEncodeIndexMissingLabel(t *testing.T) {
	ix := paperCI(t)
	p := ix.Pack(core.OneTier)
	cat := newCatalog([]string{"a"}) // missing b, c
	if _, err := EncodeIndex(ix, p, cat, nil); err == nil {
		t.Error("encode with incomplete catalog succeeded")
	}
}

func TestDecodeIndexCorruption(t *testing.T) {
	ix := paperCI(t)
	p := ix.Pack(core.OneTier)
	cat := BuildCatalog(ix)
	data, err := EncodeIndex(ix, p, cat, nil)
	if err != nil {
		t.Fatalf("EncodeIndex: %v", err)
	}
	t.Run("truncated", func(t *testing.T) {
		if _, _, err := DecodeIndex(data[:len(data)-4], ix.Model, core.OneTier, cat); err == nil {
			t.Error("truncated stream decoded")
		}
	})
	t.Run("wrong tier", func(t *testing.T) {
		// Parsing a one-tier stream as first tier misreads tuple widths.
		if _, _, err := DecodeIndex(data, ix.Model, core.FirstTier, cat); err == nil {
			t.Error("wrong-tier decode succeeded")
		}
	})
}

func TestApplyRootLabelsMismatch(t *testing.T) {
	ix := paperCI(t)
	if err := ApplyRootLabels(ix, []string{"a", "b"}); err == nil {
		t.Error("mismatched root labels applied")
	}
}

// escapeIndex is a root with children child leaves (labels l0, l1, …) and
// docs documents attached to it.
func escapeIndex(m core.SizeModel, children, docs int) *core.Index {
	ix := &core.Index{Model: m, Roots: []core.NodeID{0}}
	ix.Nodes = append(ix.Nodes, core.Node{ID: 0, Label: "r", Parent: core.NoNode})
	for d := 0; d < docs; d++ {
		ix.Nodes[0].Docs = append(ix.Nodes[0].Docs, xmldoc.DocID(d))
	}
	for c := 1; c <= children; c++ {
		ix.Nodes[0].Children = append(ix.Nodes[0].Children, core.NodeID(c))
		ix.Nodes = append(ix.Nodes, core.Node{ID: core.NodeID(c), Label: fmt.Sprintf("l%04d", c), Parent: 0, Docs: []xmldoc.DocID{0}})
	}
	return ix
}

// TestFlagEscape: a count the flag block cannot hold is escaped and the node
// round-trips at the size core.Pack gave it; a count below the capacity
// keeps the unescaped layout byte for byte.
func TestFlagEscape(t *testing.T) {
	m := core.DefaultSizeModel()
	max := m.FlagCountMax()
	if max != 127 {
		t.Fatalf("FlagCountMax = %d at the default model, want 127", max)
	}
	for _, tc := range []struct{ children, docs int }{{0, 126}, {3, 127}, {2, 200}, {1, 1000}, {127, 5}, {300, 1000}} {
		for _, tier := range []core.Tier{core.OneTier, core.FirstTier} {
			ix := escapeIndex(m, tc.children, tc.docs)
			p := ix.Pack(tier)
			cat := BuildCatalog(ix)
			offs := DocOffsets{}
			for d := 0; d < tc.docs; d++ {
				offs[xmldoc.DocID(d)] = uint64(10 * d)
			}
			data, err := EncodeIndex(ix, p, cat, offs)
			if err != nil {
				t.Fatalf("%+v %v: EncodeIndex: %v", tc, tier, err)
			}
			want := m.FlagBytes + tc.children*m.EntryBytes() + tc.docs*m.DocTupleBytes(tier)
			if tc.children >= max {
				want += m.EntryLabelBytes
			}
			if tc.docs >= max {
				want += m.DocIDBytes
			}
			if p.NodeSizes[0] != want {
				t.Errorf("%+v %v: root packs at %d bytes, want %d", tc, tier, p.NodeSizes[0], want)
			}
			if tc.children < max && tc.docs < max {
				flag := getUint(data, 0, m.FlagBytes)
				if flag != uint64(core.KindRoot)|uint64(tc.children)<<2|uint64(tc.docs)<<9 {
					t.Errorf("%+v %v: unescaped flag %#x changed", tc, tier, flag)
				}
			}
			back, gotP, gotOffs, err := DecodeIndexLayout(data, m, tier, cat)
			if err != nil {
				t.Fatalf("%+v %v: DecodeIndexLayout: %v", tc, tier, err)
			}
			_ = ApplyRootLabels(back, RootLabels(ix))
			if !reflect.DeepEqual(back.Nodes, ix.Nodes) {
				t.Errorf("%+v %v: decoded nodes differ", tc, tier)
			}
			if !reflect.DeepEqual(gotP.NodeOffsets, p.NodeOffsets) || !reflect.DeepEqual(gotP.NodeSizes, p.NodeSizes) ||
				gotP.NumPackets != p.NumPackets {
				t.Errorf("%+v %v: decoded layout %v/%v, packed %v/%v", tc, tier, gotP.NodeOffsets, gotP.NodeSizes, p.NodeOffsets, p.NodeSizes)
			}
			if tier == core.OneTier && !reflect.DeepEqual(gotOffs, offs) {
				t.Errorf("%+v: one-tier offsets did not round-trip", tc)
			}
		}
	}
	// A non-canonical escape (a count the flag could have held) is refused.
	ix := escapeIndex(m, 0, 127)
	data, err := EncodeIndex(ix, ix.Pack(core.FirstTier), BuildCatalog(ix), nil)
	if err != nil {
		t.Fatal(err)
	}
	data[m.FlagBytes] = 5 // the escaped document count, low byte
	if _, _, err := DecodeIndex(data, m, core.FirstTier, BuildCatalog(ix)); err == nil {
		t.Error("escaped count below the flag's capacity decoded")
	}
}

// TestFlagCapacityError: a count past the escape's own field cannot be
// written, and a flag block too small for node headers is refused.
func TestFlagCapacityError(t *testing.T) {
	m := core.SizeModel{FlagBytes: 1, EntryLabelBytes: 1, PointerBytes: 4, DocIDBytes: 1, PacketBytes: 64}
	ix := escapeIndex(m, 0, 256)
	if _, err := EncodeIndex(ix, ix.Pack(core.FirstTier), BuildCatalog(ix), nil); err == nil {
		t.Error("256 documents escaped into a 1-byte count")
	}
	if _, err := flagLayoutFor(core.SizeModel{FlagBytes: 0, EntryLabelBytes: 1, PointerBytes: 1, DocIDBytes: 1, PacketBytes: 1}); err == nil {
		t.Error("zero-byte flag layout accepted")
	}
}

func TestSecondTierRoundTrip(t *testing.T) {
	m := core.DefaultSizeModel()
	entries := []SecondTierEntry{{Doc: 9, Offset: 100}, {Doc: 2, Offset: 0}, {Doc: 5, Offset: 70000}}
	data, err := EncodeSecondTier(entries, m)
	if err != nil {
		t.Fatalf("EncodeSecondTier: %v", err)
	}
	if len(data) != SecondTierSize(len(entries), m) {
		t.Fatalf("encoded %d bytes, want %d", len(data), SecondTierSize(len(entries), m))
	}
	back, err := DecodeSecondTier(data, m)
	if err != nil {
		t.Fatalf("DecodeSecondTier: %v", err)
	}
	want := []SecondTierEntry{{Doc: 2, Offset: 0}, {Doc: 5, Offset: 70000}, {Doc: 9, Offset: 100}}
	if !reflect.DeepEqual(back, want) {
		t.Errorf("round trip = %v, want %v", back, want)
	}
}

func TestSecondTierEmpty(t *testing.T) {
	m := core.DefaultSizeModel()
	data, err := EncodeSecondTier(nil, m)
	if err != nil {
		t.Fatalf("EncodeSecondTier: %v", err)
	}
	back, err := DecodeSecondTier(data, m)
	if err != nil {
		t.Fatalf("DecodeSecondTier: %v", err)
	}
	if len(back) != 0 {
		t.Errorf("empty round trip = %v", back)
	}
}

func TestSecondTierDecodeErrors(t *testing.T) {
	m := core.DefaultSizeModel()
	if _, err := DecodeSecondTier(nil, m); err == nil {
		t.Error("nil second tier decoded")
	}
	if _, err := DecodeSecondTier([]byte{9, 0, 1}, m); err == nil {
		t.Error("truncated second tier decoded")
	}
}

// TestQuickIndexRoundTrip: encode/decode is the identity over random NITF
// CIs and PCIs, in both tiers.
func TestQuickIndexRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 6, Seed: seed, MaxDepth: 7})
		if err != nil {
			return false
		}
		ix, err := core.BuildCI(c, core.DefaultSizeModel())
		if err != nil {
			return false
		}
		queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 8, MaxDepth: 5, WildcardProb: 0.2, Seed: seed})
		if err != nil {
			return false
		}
		pci, _, err := ix.Prune(queries)
		if err != nil {
			return false
		}
		for _, idx := range []*core.Index{ix, pci} {
			cat := BuildCatalog(idx)
			for _, tier := range []core.Tier{core.OneTier, core.FirstTier} {
				p := idx.Pack(tier)
				offs := DocOffsets{}
				if tier == core.OneTier {
					for i, d := range idx.DocIDs() {
						if i%2 == 0 {
							offs[d] = uint64(i) * 1000
						}
					}
				}
				data, err := EncodeIndex(idx, p, cat, offs)
				if err != nil {
					t.Log(err)
					return false
				}
				back, gotOffs, err := DecodeIndex(data, idx.Model, tier, cat)
				if err != nil {
					t.Log(err)
					return false
				}
				if err := ApplyRootLabels(back, RootLabels(idx)); err != nil {
					return false
				}
				if !indexesEqual(idx, back) {
					return false
				}
				if tier == core.OneTier && !reflect.DeepEqual(gotOffs, offs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
