package wire

import (
	"testing"

	"repro/internal/core"
)

// FuzzDecodeIndex feeds arbitrary bytes to the index decoder: it must never
// panic, and anything it accepts must validate as a structurally sound
// index.
func FuzzDecodeIndex(f *testing.F) {
	// Seed with a real encoded index.
	docs := paperDocsForFuzz()
	ix, err := core.BuildCI(docs, core.DefaultSizeModel())
	if err != nil {
		f.Fatal(err)
	}
	cat := BuildCatalog(ix)
	for _, tier := range []core.Tier{core.OneTier, core.FirstTier} {
		p := ix.Pack(tier)
		if data, err := EncodeIndex(ix, p, cat, nil); err == nil {
			f.Add(data, tier == core.OneTier)
		}
	}
	// A node past the flag's capacity, its counts escaped.
	esc := escapeIndex(core.DefaultSizeModel(), 130, 200)
	if data, err := EncodeIndex(esc, esc.Pack(core.FirstTier), BuildCatalog(esc), nil); err == nil {
		f.Add(data, false)
	}
	f.Add([]byte{}, true)
	f.Add([]byte{0, 0, 0, 1, 2, 3}, false)

	f.Fuzz(func(t *testing.T, data []byte, oneTier bool) {
		tier := core.FirstTier
		if oneTier {
			tier = core.OneTier
		}
		decoded, _, err := DecodeIndex(data, core.DefaultSizeModel(), tier, cat)
		if err != nil {
			return
		}
		if err := decoded.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid index: %v", err)
		}
	})
}

// FuzzDecodeSecondTier must never panic and must round-trip what it accepts.
func FuzzDecodeSecondTier(f *testing.F) {
	m := core.DefaultSizeModel()
	good, err := EncodeSecondTier([]SecondTierEntry{{Doc: 1, Offset: 7}, {Doc: 9, Offset: 0}}, m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{255, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeSecondTier(data, m)
		if err != nil {
			return
		}
		back, err := EncodeSecondTier(entries, m)
		if err != nil {
			t.Fatalf("re-encode of accepted second tier failed: %v", err)
		}
		again, err := DecodeSecondTier(back, m)
		if err != nil || len(again) != len(entries) {
			t.Fatalf("second-tier round trip unstable: %v", err)
		}
	})
}

// FuzzDecodeCatalog must never panic and must round-trip what it accepts.
func FuzzDecodeCatalog(f *testing.F) {
	cat := newCatalog([]string{"a", "bb", "ccc"})
	good, err := cat.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCatalog(data)
		if err != nil {
			return
		}
		back, err := c.Encode()
		if err != nil {
			t.Fatalf("re-encode of accepted catalog failed: %v", err)
		}
		again, err := DecodeCatalog(back)
		if err != nil || again.Len() != c.Len() {
			t.Fatalf("catalog round trip unstable: %v", err)
		}
	})
}
