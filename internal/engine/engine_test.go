package engine

import (
	"bytes"
	"reflect"
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

// TestEncodedSegmentsMatchCycleSizes encodes a cycle for every index
// organisation at K = 1, 2 and 4 and checks that each segment EncodeCycle
// cuts is exactly the size the cycle's layout accounts for — the sizes the
// simulator's byte clock runs on — and that the head decodes to the cycle.
func TestEncodedSegmentsMatchCycleSizes(t *testing.T) {
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
			cy, err := e.AssembleCycle(3, 0, pendingFor(t, e, queries))
			if err != nil {
				t.Fatalf("%s K=%d: %v", org.name, k, err)
			}
			enc, err := e.EncodeCycle(cy)
			if err != nil {
				t.Fatalf("%s K=%d: %v", org.name, k, err)
			}
			if len(enc.Head) != cy.HeadBytes || len(enc.Index) != cy.IndexStreamBytes() || len(enc.ChannelDir) != cy.DirBytes {
				t.Errorf("%s K=%d: head/index/directory are %d/%d/%d bytes, the cycle sizes them %d/%d/%d", org.name, k,
					len(enc.Head), len(enc.Index), len(enc.ChannelDir), cy.HeadBytes, cy.IndexStreamBytes(), cy.DirBytes)
			}
			want := []int{cy.SecondTierBytes}
			if k > 1 {
				want = want[:0]
				for _, lay := range cy.Channels[1:] {
					want = append(want, lay.SecondTierBytes)
				}
			}
			got := make([]int, len(enc.SecondTiers))
			for i, st := range enc.SecondTiers {
				got[i] = len(st)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s K=%d: second tiers are %v bytes, the cycle sizes them %v", org.name, k, got, want)
			}
			h, err := wire.DecodeCycleHead(enc.Head)
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
		got, err := e.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("query %s: Resolve = %v, Filter = %v", q, got, want[i])
		}
	}
}

func TestResolveMemoization(t *testing.T) {
	c, queries := fixture(t, 10, 8)
	e := newEngine(t, c, 100_000)
	if _, err := e.ResolveAll(queries); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.CacheHits != 0 {
		t.Errorf("first resolve: %d hits, want 0", m.CacheHits)
	}
	misses := m.CacheMisses
	if misses == 0 {
		t.Fatal("first resolve recorded no misses")
	}
	// Second pass: every distinct query must hit.
	if _, err := e.ResolveAll(queries); err != nil {
		t.Fatal(err)
	}
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
	before, err := e.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	// Removing a result document must drop it from the re-resolved answer.
	victim := before[0]
	if err := e.RemoveDocument(victim); err != nil {
		t.Fatal(err)
	}
	after, err := e.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
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
	restored, err := e.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored, before) {
		t.Fatalf("after re-add: %v, want %v", restored, before)
	}
}

func TestAssembleCycleMatchesDirectBuilder(t *testing.T) {
	c, queries := fixture(t, 12, 10)
	capacity := c.TotalSize() / 3
	e := newEngine(t, c, capacity)

	answers, err := e.ResolveAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	pending := make([]Pending, 0, len(queries))
	for i, q := range queries {
		pending = append(pending, Pending{ID: int64(i), Query: q, Arrival: 0, Remaining: answers[q.String()]})
	}
	cy, err := e.AssembleCycle(0, 0, pending)
	if err != nil {
		t.Fatal(err)
	}
	if cy.NumPending != len(pending) {
		t.Errorf("NumPending = %d, want %d", cy.NumPending, len(pending))
	}

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
	enc, err := e.EncodeCycle(cy)
	if err != nil {
		t.Fatal(err)
	}
	wantSegs, err := builder.AppendEncoded(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if n := want.IndexStreamBytes(); !bytes.Equal(enc.Index, wantSegs[:n]) {
		t.Error("index segments differ")
	} else if !bytes.Equal(enc.SecondTiers[0], wantSegs[n:]) {
		t.Error("second-tier segments differ")
	}
	if len(enc.Docs) != len(cy.Docs) {
		t.Fatalf("%d doc payloads for %d placements", len(enc.Docs), len(cy.Docs))
	}
	for i, p := range cy.Docs {
		payload := enc.Docs[i]
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

func TestEncodeCycleReusesPayloadCache(t *testing.T) {
	c, queries := fixture(t, 6, 6)
	e := newEngine(t, c, c.TotalSize())
	answers, err := e.ResolveAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	pending := []Pending{{ID: 1, Query: queries[0], Arrival: 0, Remaining: answers[queries[0].String()]}}
	cy, err := e.AssembleCycle(0, 0, pending)
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := e.EncodeCycle(cy)
	if err != nil {
		t.Fatal(err)
	}
	docs1 := append([][]byte(nil), enc1.Docs...)
	// Nothing is attached on a fresh engine; attach an on-air form to every
	// document but the last.
	airs := make([][]byte, len(docs1)-1)
	for i := range docs1 {
		if enc1.Air(i) != nil {
			t.Errorf("doc %d has an on-air form before anything was attached", i)
		}
		if i < len(airs) {
			airs[i] = []byte{byte(i), 'a', 'i', 'r'}
			e.AttachAir(enc1, i, airs[i])
		}
	}
	e.Recycle(enc1)
	enc2, err := e.EncodeCycle(cy)
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs1 {
		if &docs1[i][0] != &enc2.Docs[i][0] {
			t.Errorf("doc payload %d was re-allocated instead of served from cache", i)
		}
		switch air := enc2.Air(i); {
		case i < len(airs) && (len(air) == 0 || &air[0] != &airs[i][0]):
			t.Errorf("doc %d: the attached on-air form did not survive to the next cycle", i)
		case i >= len(airs) && air != nil:
			t.Errorf("doc %d: on-air form %q, nothing was attached", i, air)
		}
	}
	e.Recycle(enc2)
	if enc2.Index != nil || enc2.buf != nil {
		t.Error("Recycle must clear the pooled segment references")
	}
}

func TestAssembleCycleEmptyPending(t *testing.T) {
	c, _ := fixture(t, 3, 3)
	e := newEngine(t, c, 100_000)
	if _, err := e.AssembleCycle(0, 0, nil); err == nil {
		t.Error("empty pending must error")
	}
}
