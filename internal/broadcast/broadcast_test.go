package broadcast

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func testSetup(t *testing.T) (*xmldoc.Collection, []xpath.Path) {
	t.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 12, Seed: 3})
	if err != nil {
		t.Fatalf("Documents: %v", err)
	}
	queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 20, MaxDepth: 5, WildcardProb: 0.1, Seed: 4})
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	return c, queries
}

func TestNewBuilderInvalidMode(t *testing.T) {
	c, _ := testSetup(t)
	if _, err := NewBuilder(c, core.DefaultSizeModel(), Mode(0)); err == nil {
		t.Error("invalid mode accepted")
	}
}

func TestModeString(t *testing.T) {
	if OneTierMode.String() != "one-tier" || TwoTierMode.String() != "two-tier" {
		t.Error("mode strings wrong")
	}
	if got := Mode(7).String(); got != "Mode(7)" {
		t.Errorf("unknown mode = %q", got)
	}
}

// A -mode flag value parses through UnmarshalText, the inverse of String.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{OneTierMode, TwoTierMode} {
		var got Mode
		if err := got.UnmarshalText([]byte(m.String())); err != nil || got != m {
			t.Errorf("UnmarshalText(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, bad := range []string{"", "three-tier", "Mode(1)", "Two-Tier"} {
		var m Mode
		if err := m.UnmarshalText([]byte(bad)); err == nil || !strings.Contains(err.Error(), "unknown mode") {
			t.Errorf("UnmarshalText(%q) error = %v, want an unknown-mode error", bad, err)
		}
	}
}

func TestCheckCompress(t *testing.T) {
	for _, k := range []int{0, 1} {
		if err := CheckCompress(k, true); err != nil {
			t.Errorf("K=%d compressed: %v", k, err)
		}
	}
	if err := CheckCompress(4, false); err != nil {
		t.Errorf("K=4 bare: %v", err)
	}
	if err := CheckCompress(4, true); err == nil || !strings.Contains(err.Error(), "single channel") {
		t.Errorf("K=4 compressed: err = %v, want the single-channel rule", err)
	}
}

func TestBuildCycleLayout(t *testing.T) {
	c, queries := testSetup(t)
	for _, mode := range []Mode{OneTierMode, TwoTierMode} {
		t.Run(mode.String(), func(t *testing.T) {
			b, err := NewBuilder(c, core.DefaultSizeModel(), mode)
			if err != nil {
				t.Fatalf("NewBuilder: %v", err)
			}
			plan := []xmldoc.DocID{c.Docs()[0].ID, c.Docs()[3].ID, c.Docs()[5].ID}
			cy, err := b.BuildCycle(0, 1000, queries, plan)
			if err != nil {
				t.Fatalf("BuildCycle: %v", err)
			}
			if cy.TotalBytes() != cy.HeadBytes+cy.IndexBytes+cy.SecondTierBytes+cy.DocBytes {
				t.Error("TotalBytes inconsistent")
			}
			if cy.Start != 1000 || cy.End() != 1000+int64(cy.TotalBytes()) {
				t.Error("start/end inconsistent")
			}
			if cy.IndexStart() != 1000+int64(cy.HeadBytes) {
				t.Error("IndexStart wrong")
			}
			if cy.DocStart() != cy.SecondTierStart()+int64(cy.SecondTierBytes) {
				t.Error("DocStart wrong")
			}
			if mode == OneTierMode && cy.SecondTierBytes != 0 {
				t.Error("one-tier cycle has a second tier")
			}
			if mode == TwoTierMode && cy.SecondTierBytes != wire.SecondTierSize(len(plan), core.DefaultSizeModel()) {
				t.Errorf("SecondTierBytes = %d", cy.SecondTierBytes)
			}
			// Document placements are dense and ordered.
			offset := 0
			for i, p := range cy.Docs {
				if p.ID != plan[i] {
					t.Errorf("doc %d = %d, want %d", i, p.ID, plan[i])
				}
				if p.Offset != offset {
					t.Errorf("doc %d offset = %d, want %d", i, p.Offset, offset)
				}
				if p.Size != c.ByID(p.ID).Size() {
					t.Errorf("doc %d size mismatch", i)
				}
				offset += p.Size
			}
			if cy.DocBytes != offset {
				t.Errorf("DocBytes = %d, want %d", cy.DocBytes, offset)
			}
			if pl, ok := cy.Placement(plan[1]); !ok || pl.ID != plan[1] {
				t.Error("Placement lookup failed")
			}
			if _, ok := cy.Placement(9999); ok {
				t.Error("Placement found unscheduled doc")
			}
			// The cycle index is pruned: answers for pending queries match CI.
			for _, q := range queries[:5] {
				want := b.CI().Lookup(q).Docs
				got := cy.Index.Lookup(q).Docs
				if len(want) != len(got) {
					t.Errorf("query %s: PCI %v vs CI %v", q, got, want)
				}
			}
		})
	}
}

func TestBuildCyclePlanErrors(t *testing.T) {
	c, queries := testSetup(t)
	b, err := NewBuilder(c, core.DefaultSizeModel(), TwoTierMode)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	id := c.Docs()[0].ID
	if _, err := b.BuildCycle(0, 0, queries, []xmldoc.DocID{id, id}); err == nil {
		t.Error("duplicate plan accepted")
	}
	if _, err := b.BuildCycle(0, 0, queries, []xmldoc.DocID{9999}); err == nil {
		t.Error("unknown doc accepted")
	}
}

func TestEncodeCycleRoundTrip(t *testing.T) {
	c, queries := testSetup(t)
	for _, mode := range []Mode{OneTierMode, TwoTierMode} {
		t.Run(mode.String(), func(t *testing.T) {
			b, err := NewBuilder(c, core.DefaultSizeModel(), mode)
			if err != nil {
				t.Fatalf("NewBuilder: %v", err)
			}
			plan := []xmldoc.DocID{c.Docs()[1].ID, c.Docs()[2].ID}
			cy, err := b.BuildCycle(0, 0, queries, plan)
			if err != nil {
				t.Fatalf("BuildCycle: %v", err)
			}
			buf, err := b.AppendEncoded(nil, cy)
			if err != nil {
				t.Fatalf("AppendEncoded: %v", err)
			}
			if want := cy.Packing.StreamBytes + cy.SecondTierBytes; len(buf) != want {
				t.Fatalf("encoded %d bytes, want index %d + second tier %d", len(buf), cy.Packing.StreamBytes, cy.SecondTierBytes)
			}
			indexSeg, stSeg := buf[:cy.Packing.StreamBytes], buf[cy.Packing.StreamBytes:]
			tier := core.OneTier
			if mode == TwoTierMode {
				tier = core.FirstTier
			}
			back, offs, err := wire.DecodeIndex(indexSeg, core.DefaultSizeModel(), tier, cy.Catalog)
			if err != nil {
				t.Fatalf("DecodeIndex: %v", err)
			}
			if err := wire.ApplyRootLabels(back, wire.RootLabels(cy.Index)); err != nil {
				t.Fatalf("ApplyRootLabels: %v", err)
			}
			if back.NumNodes() != cy.Index.NumNodes() {
				t.Errorf("decoded %d nodes, want %d", back.NumNodes(), cy.Index.NumNodes())
			}
			if mode == OneTierMode {
				// Every scheduled doc's offset must be recoverable.
				for _, p := range cy.Docs {
					if got, ok := offs[p.ID]; !ok || got != uint64(p.Offset) {
						t.Errorf("decoded offset for doc %d = %d,%v want %d", p.ID, got, ok, p.Offset)
					}
				}
				if len(stSeg) != 0 {
					t.Error("one-tier produced a second tier")
				}
			} else {
				entries, err := wire.DecodeSecondTier(stSeg, core.DefaultSizeModel())
				if err != nil {
					t.Fatalf("DecodeSecondTier: %v", err)
				}
				if len(entries) != len(plan) {
					t.Errorf("second tier has %d entries, want %d", len(entries), len(plan))
				}
				for _, e := range entries {
					if p, ok := cy.Placement(e.Doc); !ok || uint64(p.Offset) != e.Offset {
						t.Errorf("second tier entry %v mismatches placement", e)
					}
				}
			}
		})
	}
}

func TestEmptyCycle(t *testing.T) {
	c, _ := testSetup(t)
	b, err := NewBuilder(c, core.DefaultSizeModel(), TwoTierMode)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	cy, err := b.BuildCycle(0, 0, nil, nil)
	if err != nil {
		t.Fatalf("BuildCycle: %v", err)
	}
	if cy.Index.NumNodes() != 0 || cy.DocBytes != 0 {
		t.Errorf("empty cycle not empty: %d nodes, %d doc bytes", cy.Index.NumNodes(), cy.DocBytes)
	}
	if cy.TotalBytes() <= 0 {
		t.Error("empty cycle should still carry a head")
	}
}
