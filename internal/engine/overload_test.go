package engine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func limitedEngine(t testing.TB, numDocs, numQueries int, lim Limits) (*Engine, []Pending) {
	t.Helper()
	c, queries := fixture(t, numDocs, numQueries)
	e, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize(), Limits: lim})
	if err != nil {
		t.Fatal(err)
	}
	answers, err := e.ResolveAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	pending := make([]Pending, 0, len(queries))
	for i, q := range queries {
		if docs := answers[q.String()]; len(docs) > 0 {
			pending = append(pending, Pending{ID: int64(i), Query: q, Remaining: docs})
		}
	}
	if len(pending) < 2 {
		t.Fatalf("fixture yielded only %d non-empty queries", len(pending))
	}
	return e, pending
}

func TestAssembleCycleRejectsOverMaxPending(t *testing.T) {
	e, pending := limitedEngine(t, 10, 10, Limits{MaxPending: 1})
	if _, err := e.AssembleCycle(0, 0, pending); !errors.Is(err, ErrOverload) {
		t.Fatalf("AssembleCycle with %d pending over cap 1: err = %v, want ErrOverload", len(pending), err)
	}
	// At the cap is admitted, not rejected.
	if _, err := e.AssembleCycle(0, 0, pending[:1]); err != nil {
		t.Fatalf("AssembleCycle at the cap: %v", err)
	}
}

func TestAnswerCacheLRUEviction(t *testing.T) {
	const cacheCap = 3
	c, queries := fixture(t, 10, 20)
	e, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize(),
		Limits: Limits{MaxAnswerCacheEntries: cacheCap}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ResolveAll(queries); err != nil {
		t.Fatal(err)
	}
	if n := e.answers.len(); n > cacheCap {
		t.Errorf("answer cache holds %d entries, cap %d", n, cacheCap)
	}
	m := e.Metrics()
	distinct := make(map[string]struct{})
	for _, q := range queries {
		distinct[q.String()] = struct{}{}
	}
	if want := int64(len(distinct) - cacheCap); m.AnswerEvictions < want {
		t.Errorf("AnswerEvictions = %d, want >= %d", m.AnswerEvictions, want)
	}
	// Eviction must not corrupt answers: every query still resolves to the
	// same result as an unbounded engine.
	ref := newEngine(t, c, c.TotalSize())
	for _, q := range queries {
		got, err := e.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %s: %d docs after eviction, want %d", q, len(got), len(want))
		}
	}
}

// payloadCacheBytes recounts the cache's contents: payloads and attached
// on-air forms.
func payloadCacheBytes(e *Engine) (payloads, airs int) {
	for el := e.payloads.ll.Front(); el != nil; el = el.Next() {
		en := el.Value.(*payloadEntry)
		payloads += len(en.payload)
		airs += len(en.air)
	}
	return payloads, airs
}

func TestPayloadCacheByteBound(t *testing.T) {
	const maxBytes = 4 << 10
	e, pending := limitedEngine(t, 12, 12, Limits{MaxPayloadCacheBytes: maxBytes})
	// Each document gets an on-air form a quarter of its payload, as a
	// compressing driver would attach; the bound covers both.
	for i := 0; i < 3; i++ {
		cy, err := e.AssembleCycle(int64(i), int64(i), pending)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := e.EncodeCycle(cy)
		if err != nil {
			t.Fatal(err)
		}
		for j, payload := range enc.Docs {
			e.AttachAir(enc, j, make([]byte, len(payload)/4))
			if got := e.payloads.bytes; got > maxBytes && e.payloads.ll.Len() > 1 {
				t.Fatalf("cycle %d doc %d: cache holds %d bytes in %d entries, cap %d", i, j, got, e.payloads.ll.Len(), maxBytes)
			}
		}
		e.Recycle(enc)
	}
	// Documents average ~1 KB+, so a 4 KB bound forces evictions while the
	// cycle rebroadcasts every scheduled document.
	payloads, airs := payloadCacheBytes(e)
	if got := e.payloads.bytes; got != payloads+airs || got > maxBytes {
		t.Errorf("payload cache counts %d bytes, holds %d + %d, cap %d", got, payloads, airs, maxBytes)
	}
	if airs == 0 {
		t.Error("no attached on-air form left in the cache: the bound was not exercised with them counted")
	}
	if m := e.Metrics(); m.PayloadEvictions == 0 {
		t.Error("no payload evictions recorded under a tight byte bound")
	}

	// The entry attached to is never the one evicted, even when the on-air
	// form alone exceeds the bound: it stays as the only entry.
	cy, err := e.AssembleCycle(3, 3, pending)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := e.EncodeCycle(cy)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Recycle(enc)
	last := len(enc.Docs) - 1 // most recently inserted, so certainly cached
	big := make([]byte, 2*maxBytes)
	e.AttachAir(enc, last, big)
	if n := e.payloads.ll.Len(); n != 1 {
		t.Fatalf("%d entries left beside an over-sized one, want it alone", n)
	}
	if en := e.payloads.ll.Front().Value.(*payloadEntry); &en.payload[0] != &enc.Docs[last][0] || len(en.air) != len(big) {
		t.Error("the entry attached to was evicted")
	}
	if got, want := e.payloads.bytes, len(enc.Docs[last])+len(big); got != want {
		t.Errorf("cache counts %d bytes, want %d", got, want)
	}
}

// TestAttachAirAfterRemoveIsDropped: an on-air form built from a payload the
// cache no longer holds — the document was removed, or removed and re-added
// under the same ID with other content, between EncodeCycle and AttachAir —
// must not be cached: it would air stale bytes for the new document.
func TestAttachAirAfterRemoveIsDropped(t *testing.T) {
	e, pending := limitedEngine(t, 6, 6, Limits{})
	cy, err := e.AssembleCycle(0, 0, pending)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := e.EncodeCycle(cy)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.Docs) < 3 {
		t.Fatalf("cycle schedules %d documents, need 3", len(enc.Docs))
	}
	gone, swapped, kept := cy.Docs[0].ID, cy.Docs[1].ID, cy.Docs[2].ID
	if err := e.RemoveDocument(gone); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveDocument(swapped); err != nil {
		t.Fatal(err)
	}
	if err := e.AddDocument(xmldoc.NewDocument(swapped, xmldoc.TextEl("nitf", "other text"))); err != nil {
		t.Fatal(err)
	}
	// Re-encode a cycle holding the re-added document so its new payload is
	// cached when the stale attach arrives.
	answers, err := e.ResolveAll([]xpath.Path{xpath.MustParse("/nitf")})
	if err != nil {
		t.Fatal(err)
	}
	cy2, err := e.AssembleCycle(1, 1, []Pending{{ID: 100, Query: xpath.MustParse("/nitf"), Arrival: 1, Remaining: answers["/nitf"]}})
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := e.EncodeCycle(cy2)
	if err != nil {
		t.Fatal(err)
	}
	before := e.payloads.bytes
	for i := 0; i < 3; i++ {
		e.AttachAir(enc, i, []byte("envelope of the old payload"))
	}
	if got, want := e.payloads.bytes, before+len("envelope of the old payload"); got != want {
		t.Errorf("cache grew by %d bytes, want %d: only the surviving document's entry may take its on-air form", got-before, want-before)
	}
	enc3, err := e.EncodeCycle(cy2)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i, p := range cy2.Docs {
		switch air := enc3.Air(i); p.ID {
		case gone:
			t.Errorf("removed document %d is scheduled", gone)
		case swapped:
			seen++
			if air != nil {
				t.Errorf("re-added document %d carries the on-air form of its old content", swapped)
			}
			if &enc3.Docs[i][0] == &enc.Docs[1][0] {
				t.Errorf("re-added document %d still airs its old payload", swapped)
			}
		case kept:
			seen++
			if string(air) != "envelope of the old payload" {
				t.Errorf("surviving document %d lost its on-air form: %q", kept, air)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("the second cycle schedules %d of the re-added and the surviving document, want both", seen)
	}
	e.Recycle(enc)
	e.Recycle(enc2)
	e.Recycle(enc3)
}

func TestBuildBudgetDegradesToFullCI(t *testing.T) {
	e, pending := limitedEngine(t, 10, 8, Limits{BuildBudget: time.Nanosecond})
	cy, err := e.AssembleCycle(0, 0, pending)
	if err != nil {
		t.Fatal(err)
	}
	if !cy.Degraded {
		t.Fatal("1 ns build budget did not degrade the cycle")
	}
	e.mu.Lock()
	ciNodes := e.builder.CI().NumNodes()
	e.mu.Unlock()
	if cy.Index.NumNodes() != ciNodes {
		t.Errorf("degraded cycle carries %d index nodes, want the full CI's %d", cy.Index.NumNodes(), ciNodes)
	}
	if m := e.Metrics(); m.DegradedCycles != 1 {
		t.Errorf("DegradedCycles = %d, want 1", m.DegradedCycles)
	}
	// The degraded cycle must still encode (clients decode the CI exactly
	// like a PCI — same wire format, more nodes).
	enc, err := e.EncodeCycle(cy)
	if err != nil {
		t.Fatalf("EncodeCycle on degraded cycle: %v", err)
	}
	if len(enc.Index) == 0 {
		t.Error("degraded cycle encoded an empty index segment")
	}
	e.Recycle(enc)

	// Without a budget the same inputs build a pruned, non-degraded cycle.
	e2, pending2 := limitedEngine(t, 10, 8, Limits{})
	cy2, err := e2.AssembleCycle(0, 0, pending2)
	if err != nil {
		t.Fatal(err)
	}
	if cy2.Degraded {
		t.Error("unbudgeted cycle reported degraded")
	}
	if cy2.Index.NumNodes() > cy.Index.NumNodes() {
		t.Errorf("pruned index (%d nodes) larger than unpruned CI (%d nodes)",
			cy2.Index.NumNodes(), cy.Index.NumNodes())
	}
}

func TestIncrementalInvalidationOnAdd(t *testing.T) {
	c, queries := fixture(t, 10, 8)
	e := newEngine(t, c, 100_000)
	if _, err := e.ResolveAll(queries); err != nil {
		t.Fatal(err)
	}
	warm := e.answers.len()
	if warm == 0 {
		t.Fatal("no warm entries")
	}

	// A document no NITF query matches: unrelated root, so every warm
	// entry must survive.
	root, err := xmldoc.Parse(strings.NewReader("<zzz><unmatched/></zzz>"))
	if err != nil {
		t.Fatal(err)
	}
	alien := xmldoc.NewDocument(9001, root)
	before := e.Metrics()
	if err := e.AddDocument(alien); err != nil {
		t.Fatal(err)
	}
	after := e.Metrics()
	if e.answers.len() != warm {
		t.Errorf("unrelated AddDocument evicted entries: %d -> %d", warm, e.answers.len())
	}
	if after.CacheInvalidations != before.CacheInvalidations+1 {
		t.Errorf("CacheInvalidations = %d, want %d", after.CacheInvalidations, before.CacheInvalidations+1)
	}
	if after.CacheHits+after.CacheMisses != before.CacheHits+before.CacheMisses {
		t.Error("invalidation should not consume cache accesses")
	}
	// Re-resolving everything must be pure hits.
	if _, err := e.ResolveAll(queries); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.CacheMisses != after.CacheMisses {
		t.Errorf("re-resolve after unrelated add missed: %d -> %d", after.CacheMisses, m.CacheMisses)
	}

	// Re-adding a fixture document (same schema) must evict exactly the
	// queries that match it — and those must re-resolve to include it.
	victimQuery := queries[0]
	docs, err := e.Resolve(victimQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) == 0 {
		t.Skip("fixture query 0 matches nothing")
	}
	matched := c.ByID(docs[0])
	if err := e.RemoveDocument(matched.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.answers.get(victimQuery.String()); ok {
		t.Error("removing a result document left its answer cached")
	}
	if err := e.AddDocument(matched); err != nil {
		t.Fatal(err)
	}
	restored, err := e.Resolve(victimQuery)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range restored {
		if d == matched.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("re-added document %d missing from re-resolved answer %v", matched.ID, restored)
	}
}

func TestIncrementalInvalidationOnRemove(t *testing.T) {
	c, queries := fixture(t, 10, 8)
	e := newEngine(t, c, 100_000)
	answers, err := e.ResolveAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a document and partition the cached queries by whether their
	// answer contains it.
	var victim = c.Docs()[0].ID
	contains := make(map[string]bool)
	for _, q := range queries {
		for _, d := range answers[q.String()] {
			if d == victim {
				contains[q.String()] = true
			}
		}
	}
	before := e.answers.len()
	if err := e.RemoveDocument(victim); err != nil {
		t.Fatal(err)
	}
	evicted := 0
	for _, q := range queries {
		_, cached := e.answers.get(q.String())
		if contains[q.String()] {
			if cached {
				t.Errorf("query %s contains removed doc %d but stayed cached", q, victim)
			}
			evicted++
		} else if !cached {
			t.Errorf("query %s unaffected by doc %d but was evicted", q, victim)
		}
	}
	if got := before - e.answers.len(); evicted == 0 && got != 0 {
		t.Errorf("expected no evictions, lost %d entries", got)
	}
}
