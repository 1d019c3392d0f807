package engine

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/wire"
	"repro/internal/xmldoc"
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

	pending := make([]Pending, 0, len(queries))
	for i, q := range queries {
		docs := eng.Resolve(q)
		if len(docs) == 0 {
			continue
		}
		pending = append(pending, Pending{
			ID:        int64(i),
			Query:     q,
			Arrival:   int64(i) * 64,
			Remaining: append([]xmldoc.DocID(nil), docs...),
		})
	}
	if len(pending) < 4 {
		t.Fatalf("fixture too small: %d pending requests", len(pending))
	}

	var out bytes.Buffer
	writeSeg := func(seg []byte) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(seg)))
		out.Write(n[:])
		out.Write(seg)
	}

	start := int64(0)
	for number := int64(0); number < 3 && len(pending) > 0; number++ {
		cy, err := eng.AssembleCycle(number, start, pending)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := eng.EncodeCycle(cy)
		if err != nil {
			t.Fatal(err)
		}
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

		// Retire delivered documents so the next cycle schedules fresh work.
		delivered := make(map[xmldoc.DocID]struct{}, len(cy.Docs))
		for _, p := range cy.Docs {
			delivered[p.ID] = struct{}{}
		}
		survivors := pending[:0]
		for _, p := range pending {
			rem := p.Remaining[:0]
			for _, d := range p.Remaining {
				if _, ok := delivered[d]; !ok {
					rem = append(rem, d)
				}
			}
			p.Remaining = rem
			if len(p.Remaining) > 0 {
				survivors = append(survivors, p)
			}
		}
		pending = survivors
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
	var pending []Pending
	for i, q := range queries {
		docs := eng.Resolve(q)
		if len(docs) == 0 {
			continue
		}
		sort.Slice(docs, func(a, b int) bool { return docs[a] < docs[b] })
		pending = append(pending, Pending{ID: int64(i), Query: q, Arrival: int64(i), Remaining: docs})
	}
	cy, err := eng.AssembleCycle(0, 0, pending)
	if err != nil {
		t.Fatal(err)
	}
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
