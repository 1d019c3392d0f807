package engine

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/schedule"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

func fixture(t testing.TB, numDocs, numQueries int) (*xmldoc.Collection, []xpath.Path) {
	t.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: numDocs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: numQueries, MaxDepth: 5, WildcardProb: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c, queries
}

func newEngine(t testing.TB, c *xmldoc.Collection, capacity int) *Engine {
	t.Helper()
	e, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// airOnce admits each query with a non-empty answer, in order and arrived at
// time 0, into a fresh in-memory ledger over e, and airs the ledger's cycle
// number (after number idle cycles) from start 0: the cycle and its frames.
func airOnce(t testing.TB, e *Engine, number int64, queries []xpath.Path) (*Cycle, *Encoded) {
	t.Helper()
	l, err := NewLedger(e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < number; i++ {
		if err := l.Idle(); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		if _, _, err := l.Admit(q, 0, 0); err != nil && !strings.Contains(err.Error(), "empty result set") {
			t.Fatal(err)
		}
	}
	var enc *Encoded
	cy, _, err := l.Air(0, func(_ *Cycle, aired *Encoded) error { enc = aired; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if cy == nil {
		t.Fatal("no query has a non-empty answer")
	}
	return cy, enc
}

// resolveAll resolves each distinct query once and keys the answers by
// canonical query string, as a driver with a batch of queries does.
func resolveAll(e *Engine, queries []xpath.Path) map[string][]xmldoc.DocID {
	out := make(map[string][]xmldoc.DocID, len(queries))
	for _, q := range queries {
		if _, ok := out[q.String()]; !ok {
			out[q.String()] = e.Resolve(q)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	c, _ := fixture(t, 3, 5)
	if _, err := New(Config{Mode: broadcast.TwoTierMode, CycleCapacity: 1}); err == nil {
		t.Error("nil collection should fail")
	}
	if _, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode}); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := New(Config{Collection: c, Mode: 0, CycleCapacity: 1000}); err == nil {
		t.Error("invalid mode should fail")
	}
	for _, tc := range []struct {
		mode     broadcast.Mode
		channels int
	}{{broadcast.TwoTierMode, -1}, {broadcast.TwoTierMode, 257}, {broadcast.OneTierMode, 2}} {
		if _, err := New(Config{Collection: c, Mode: tc.mode, Channels: tc.channels, CycleCapacity: 1000}); err == nil {
			t.Errorf("%s with %d channels should fail", tc.mode, tc.channels)
		}
	}
}

// payloads lists the payloads of the frames of type ft that channel ch of a
// bare cycle airs, in air order, checking every frame of the channel.
func payloads(t *testing.T, enc *Encoded, ch int, ft wire.FrameType) [][]byte {
	t.Helper()
	var out [][]byte
	for i, fr := range enc.Frames[ch] {
		got, payload, err := wire.ReadFrame(bytes.NewReader(fr))
		if err != nil {
			t.Fatalf("channel %d frame %d: %v", ch, i, err)
		}
		if got == ft {
			out = append(out, payload)
		}
	}
	return out
}

// TestEncodedSegmentsMatchCycleSizes encodes a cycle for every index
// organisation at K = 1, 2 and 4 and checks the air program frame by frame:
// each channel airs the frames its layout names, in air order, each payload
// exactly the size the cycle accounts for — the sizes the simulator's byte
// clock runs on — and the head decodes to the cycle.
func TestEncodedSegmentsMatchCycleSizes(t *testing.T) {
	type frame struct {
		t wire.FrameType
		n int
	}
	c, queries := fixture(t, 20, 12)
	for _, org := range []struct {
		name string
		mode broadcast.Mode
		enc  core.IndexEncoding
	}{
		{"one-tier", broadcast.OneTierMode, core.EncodingNode},
		{"two-tier-node", broadcast.TwoTierMode, core.EncodingNode},
		{"two-tier-succinct", broadcast.TwoTierMode, core.EncodingSuccinct},
	} {
		for _, k := range []int{1, 2, 4} {
			if org.mode == broadcast.OneTierMode && k > 1 {
				continue // refused: see TestNewValidation
			}
			e, err := New(Config{Collection: c, Mode: org.mode, IndexEncoding: org.enc, Channels: k, CycleCapacity: c.TotalSize() / 2})
			if err != nil {
				t.Fatalf("%s K=%d: %v", org.name, k, err)
			}
			cy, enc := airOnce(t, e, 3, queries)
			if len(enc.Frames) != k {
				t.Fatalf("%s K=%d: %d channels of frames", org.name, k, len(enc.Frames))
			}
			for ch, frames := range enc.Frames {
				var want, got []frame
				if k > 1 {
					want = append(want, frame{wire.FrameChannelHead, wire.ChannelHeadLen})
				}
				if ch == 0 {
					want = append(want, frame{wire.FrameCycleHead, cy.HeadBytes})
					if k > 1 {
						want = append(want, frame{wire.FrameChannelDir, cy.DirBytes})
					}
					want = append(want, frame{wire.FrameIndex, cy.IndexStreamBytes()})
				}
				if ch > 0 || k == 1 {
					st := cy.SecondTierBytes
					if k > 1 {
						st = cy.Channels[ch].SecondTierBytes
					}
					if st > 0 {
						want = append(want, frame{wire.FrameSecondTier, st})
					}
					for _, p := range cy.Docs {
						if p.Channel == ch {
							want = append(want, frame{wire.FrameDoc, 2 + p.Size})
						}
					}
				}
				for i, fr := range frames {
					ft, payload, err := wire.ReadFrame(bytes.NewReader(fr))
					if err != nil {
						t.Fatalf("%s K=%d channel %d frame %d: %v", org.name, k, ch, i, err)
					}
					got = append(got, frame{ft, len(payload)})
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s K=%d channel %d airs (type, payload bytes) %v, the cycle lays out %v", org.name, k, ch, got, want)
				}
			}
			h, err := wire.DecodeCycleHead(payloads(t, enc, 0, wire.FrameCycleHead)[0])
			if err != nil {
				t.Fatalf("%s K=%d: head: %v", org.name, k, err)
			}
			if !reflect.DeepEqual(*h, cy.Head) || h.Number != 3 || int(h.NumDocs) != len(cy.Docs) {
				t.Errorf("%s K=%d: head decodes to %+v, the cycle's is %+v", org.name, k, *h, cy.Head)
			}
			e.Recycle(enc)
		}
	}
}

func TestResolveMatchesFilter(t *testing.T) {
	c, queries := fixture(t, 20, 50)
	e := newEngine(t, c, 100_000)
	want := yfilter.New(queries).Filter(c)
	for i, q := range queries {
		got := e.Resolve(q)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("query %s: Resolve = %v, Filter = %v", q, got, want[i])
		}
	}
}

func TestResolveMemoization(t *testing.T) {
	c, queries := fixture(t, 10, 8)
	e := newEngine(t, c, 100_000)
	resolveAll(e, queries)
	m := e.Metrics()
	if m.CacheHits != 0 {
		t.Errorf("first resolve: %d hits, want 0", m.CacheHits)
	}
	misses := m.CacheMisses
	if misses == 0 {
		t.Fatal("first resolve recorded no misses")
	}
	// Second pass: every distinct query must hit.
	resolveAll(e, queries)
	m = e.Metrics()
	if m.CacheMisses != misses {
		t.Errorf("second resolve added misses: %d -> %d", misses, m.CacheMisses)
	}
	if m.CacheHits == 0 {
		t.Error("second resolve recorded no hits")
	}
	if m.CacheHitRate() <= 0 {
		t.Errorf("hit rate = %v, want > 0", m.CacheHitRate())
	}
}

func TestResolveInvalidationOnCollectionUpdate(t *testing.T) {
	c, queries := fixture(t, 10, 5)
	e := newEngine(t, c, 100_000)
	q := queries[0]
	before := e.Resolve(q)
	// Removing a result document must drop it from the re-resolved answer.
	victim := before[0]
	if err := e.RemoveDocument(victim); err != nil {
		t.Fatal(err)
	}
	after := e.Resolve(q)
	for _, d := range after {
		if d == victim {
			t.Fatalf("removed document %d still in answer %v", victim, after)
		}
	}
	if e.Metrics().CacheInvalidations != 1 {
		t.Errorf("invalidations = %d, want 1", e.Metrics().CacheInvalidations)
	}
	// Adding it back restores the original answer.
	doc := c.ByID(victim)
	if err := e.AddDocument(doc); err != nil {
		t.Fatal(err)
	}
	restored := e.Resolve(q)
	if !reflect.DeepEqual(restored, before) {
		t.Fatalf("after re-add: %v, want %v", restored, before)
	}
}

func TestAssembleCycleMatchesDirectBuilder(t *testing.T) {
	c, queries := fixture(t, 12, 10)
	capacity := c.TotalSize() / 3
	e := newEngine(t, c, capacity)

	cy, enc := airOnce(t, e, 0, queries)
	pending := pendingFor(t, e, queries)

	// Replay the same inputs against a standalone builder + scheduler: the
	// engine must add nothing and lose nothing.
	builder, err := broadcast.NewBuilder(c, core.DefaultSizeModel(), broadcast.TwoTierMode)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]schedule.Request, 0, len(pending))
	var distinct []xpath.Path
	seen := make(map[string]struct{})
	for _, p := range pending {
		reqs = append(reqs, schedule.Request{ID: p.ID, Arrival: p.Arrival, Docs: p.Remaining})
		if _, ok := seen[p.Query.String()]; !ok {
			seen[p.Query.String()] = struct{}{}
			distinct = append(distinct, p.Query)
		}
	}
	plan := schedule.LeeLo{}.PlanCycle(reqs, func(d xmldoc.DocID) int { return c.ByID(d).Size() }, capacity, 0)
	want, err := builder.BuildCycle(0, 0, distinct, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cy.Docs, want.Docs) {
		t.Errorf("placements differ:\n  engine %v\n  direct %v", cy.Docs, want.Docs)
	}
	if cy.IndexBytes != want.IndexBytes || cy.SecondTierBytes != want.SecondTierBytes || cy.DocBytes != want.DocBytes {
		t.Errorf("segment sizes differ: engine (%d,%d,%d) direct (%d,%d,%d)",
			cy.IndexBytes, cy.SecondTierBytes, cy.DocBytes, want.IndexBytes, want.SecondTierBytes, want.DocBytes)
	}

	// Encoded segments must match the builder's reference encoding.
	wantSegs, err := builder.AppendEncoded(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if n := want.IndexStreamBytes(); !bytes.Equal(payloads(t, enc, 0, wire.FrameIndex)[0], wantSegs[:n]) {
		t.Error("index segments differ")
	} else if !bytes.Equal(payloads(t, enc, 0, wire.FrameSecondTier)[0], wantSegs[n:]) {
		t.Error("second-tier segments differ")
	}
	docs := payloads(t, enc, 0, wire.FrameDoc)
	if len(docs) != len(cy.Docs) {
		t.Fatalf("%d doc payloads for %d placements", len(docs), len(cy.Docs))
	}
	for i, p := range cy.Docs {
		payload := docs[i]
		if got := xmldoc.DocID(uint16(payload[0]) | uint16(payload[1])<<8); got != p.ID {
			t.Errorf("doc %d payload carries ID %d, want %d", i, got, p.ID)
		}
		if !bytes.Equal(payload[2:], c.ByID(p.ID).Marshal()) {
			t.Errorf("doc %d payload body differs", i)
		}
	}
	e.Recycle(enc)

	m := e.Metrics()
	if m.Cycles != 1 {
		t.Errorf("metrics cycles = %d, want 1", m.Cycles)
	}
	for _, stage := range []string{StageResolve, StageSchedule, StageBuild, StageEncode} {
		if m.Stages[stage].Count == 0 {
			t.Errorf("stage %q never reported", stage)
		}
	}
}

// TestEncodeCycleReusesPayloadCache: a document is framed — and on a
// compressing engine deflated — once per stay in the payload cache; the next
// cycle that schedules it airs the very same bytes.
func TestEncodeCycleReusesPayloadCache(t *testing.T) {
	c, queries := fixture(t, 6, 6)
	for _, compress := range []bool{false, true} {
		e, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize(), Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		cy, enc1 := airOnce(t, e, 0, queries[:1])
		// At K = 1 the documents are the channel's last frames.
		docFrames := func(enc *Encoded) [][]byte { return enc.Frames[0][len(enc.Frames[0])-len(cy.Docs):] }
		frames1 := slices.Clone(docFrames(enc1))
		wrapped := e.TransportStats().Frames
		e.Recycle(enc1)
		enc2, err := e.EncodeCycle(cy)
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range docFrames(enc2) {
			if &fr[0] != &frames1[i][0] {
				t.Errorf("compress=%v: doc %d was framed again instead of served from cache", compress, i)
			}
		}
		if got, want := e.TransportStats().Frames-wrapped, len(enc2.Frames[0])-len(cy.Docs); compress && got != int64(want) {
			t.Errorf("the second cycle wrapped %d frames, want its %d frames besides the documents", got, want)
		}
		e.Recycle(enc2)
		if enc2.Frames != nil || enc2.buf != nil {
			t.Error("Recycle must clear the pooled frame references")
		}
	}
}

// TestAssembleCycleEmptyPending: a ledger with nothing pending airs no cycle,
// and the engine refuses to assemble one from an empty demand index.
func TestAssembleCycleEmptyPending(t *testing.T) {
	c, _ := fixture(t, 3, 3)
	e := newEngine(t, c, 100_000)
	l, err := NewLedger(e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cy, _, err := l.Air(0, func(*Cycle, *Encoded) error { t.Error("air called with nothing pending"); return nil })
	if cy != nil || err != nil {
		t.Errorf("Air with nothing pending = %v, %v; want no cycle and no error", cy, err)
	}
	if _, err := e.assembleCycle(0, 0, schedule.NewDemandIndex(), nil); err == nil {
		t.Error("empty pending must error")
	}
}

// BenchmarkCompressedDocAiring is the per-airing cost of one ≈ 11 KB document
// on a compressing engine: cold frames and deflates it, as its first airing
// in a stay in the payload cache does; warm is every later airing, served
// from the cache.
func BenchmarkCompressedDocAiring(b *testing.B) {
	// The benchmark's collection (bench/inputs.go: NITF at text scale 2.1,
	// 11 KB per document on average); the document nearest that mean.
	all, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 100, TextScale: 2.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	doc := slices.MinFunc(all.Docs(), func(a, b *xmldoc.Document) int {
		da, db := a.Size()-11_000, b.Size()-11_000
		return cmp.Compare(da*da, db*db)
	})
	coll, err := xmldoc.NewCollection([]*xmldoc.Document{doc})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(Config{Collection: coll, Mode: broadcast.TwoTierMode, CycleCapacity: coll.TotalSize(), Compress: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(int64(doc.Size()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.docEntry(doc.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		en, err := e.docEntry(doc.ID)
		if err != nil {
			b.Fatal(err)
		}
		e.payloads.put(en)
		b.SetBytes(int64(doc.Size()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e.payloads.get(doc.ID).onAir() == nil {
				b.Fatal("no envelope cached")
			}
		}
	})
}
