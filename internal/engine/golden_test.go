package engine

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenCycles assembles and encodes a deterministic three-cycle broadcast on
// the single-channel (K=1) path and serialises every wire segment into one
// self-describing blob. The committed golden file pins the pre-multichannel
// byte stream: any refactor of cycle assembly must keep K=1 output identical.
func goldenCycles(t *testing.T) []byte {
	t.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 12, MaxDepth: 5, WildcardProb: 0.1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 8_000})
	if err != nil {
		t.Fatal(err)
	}

	l, err := NewLedger(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if len(eng.Resolve(q)) == 0 {
			continue
		}
		if _, _, err := l.Admit(q, 0, int64(i)*64); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() < 4 {
		t.Fatalf("fixture too small: %d pending requests", l.Len())
	}

	var out bytes.Buffer
	writeSeg := func(seg []byte) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(seg)))
		out.Write(n[:])
		out.Write(seg)
	}

	// Each cycle's commit retires the delivered documents, so the next cycle
	// schedules fresh work.
	start := int64(0)
	for l.Cycles() < 3 && l.Len() > 0 {
		cy, _, err := l.Air(start, func(_ *Cycle, enc *Encoded) error {
			writeSeg(payloads(t, enc, 0, wire.FrameIndex)[0])
			writeSeg(payloads(t, enc, 0, wire.FrameSecondTier)[0])
			docs := payloads(t, enc, 0, wire.FrameDoc)
			var n [4]byte
			binary.LittleEndian.PutUint32(n[:], uint32(len(docs)))
			out.Write(n[:])
			for _, d := range docs {
				writeSeg(d)
			}
			eng.Recycle(enc)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		start = cy.End()
	}
	return out.Bytes()
}

func TestGoldenK1ByteIdentity(t *testing.T) {
	got := goldenCycles(t)
	path := filepath.Join("testdata", "golden_k1.bin")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("K=1 cycle stream diverged from pre-refactor golden: len got %d want %d, first diff at byte %d", len(got), len(want), i)
	}
}

// TestGoldenK1PooledEncode pins the satellite requirement that the K=1 fast
// path keeps reusing pooled wire buffers: steady-state EncodeCycle/Recycle
// pairs must not allocate fresh index/second-tier backing arrays.
func TestGoldenK1PooledEncode(t *testing.T) {
	c, queries := fixture(t, 15, 10)
	eng := newEngine(t, c, 50_000)
	cy, enc := airOnce(t, eng, 0, queries)
	eng.Recycle(enc)
	// Warm the pool and the payload cache.
	for i := 0; i < 3; i++ {
		enc, err := eng.EncodeCycle(cy)
		if err != nil {
			t.Fatal(err)
		}
		eng.Recycle(enc)
	}
	allocs := testing.AllocsPerRun(50, func() {
		enc, err := eng.EncodeCycle(cy)
		if err != nil {
			t.Fatal(err)
		}
		eng.Recycle(enc)
	})
	// One Encoded header, one Docs slice header, plus small fixed-cost
	// bookkeeping — but never per-byte buffer or per-doc payload copies.
	if allocs > 8 {
		t.Fatalf("steady-state K=1 EncodeCycle allocates %.1f objects/run, want <= 8 (pooled buffers bypassed?)", allocs)
	}
}
