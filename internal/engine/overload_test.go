package engine

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
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

	// A collection update patches the entries a bounded cache holds where
	// they are: same entries, same LRU order, no eviction.
	lruKeys := func() (keys []string) {
		for _, en := range e.answers.entries() { // most recently used first
			keys = append(keys, en.key)
		}
		return keys
	}
	order, evictions := lruKeys(), e.Metrics().AnswerEvictions
	if len(order) != cacheCap {
		t.Fatalf("bounded cache holds %d entries after the sweep, want %d", len(order), cacheCap)
	}
	live := newLiveDocs(c)
	victim := c.Docs()[0]
	delete(live, victim.ID)
	if err := e.RemoveDocument(victim.ID); err != nil {
		t.Fatal(err)
	}
	more, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 1, Seed: 78, FirstID: 600})
	if err != nil {
		t.Fatal(err)
	}
	live[600] = more.Docs()[0]
	if err := e.AddDocument(more.Docs()[0]); err != nil {
		t.Fatal(err)
	}
	if got := lruKeys(); !slices.Equal(got, order) {
		t.Errorf("updates reordered or resized the bounded cache: %v -> %v", order, got)
	}
	if got := e.Metrics().AnswerEvictions; got != evictions {
		t.Errorf("updates evicted answers: %d -> %d", evictions, got)
	}
	checkCacheAgainstScan(t, e, live)
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

// applyPatched runs one collection update against a warm engine and checks
// that the answer cache was patched rather than invalidated: every warm query
// is still cached, its cached answer is what a scan of the updated collection
// gives, nothing was evicted or added, the update consumed no cache accesses,
// and re-resolving the whole set afterwards is pure hits that return those
// same answers. live is the collection as it stands after the update.
func applyPatched(t *testing.T, e *Engine, queries []xpath.Path, live liveDocs, update func() error) {
	t.Helper()
	size, before := e.answers.len(), e.Metrics()
	if err := update(); err != nil {
		t.Fatal(err)
	}
	after := e.Metrics()
	if e.answers.len() != size || after.AnswerEvictions != before.AnswerEvictions {
		t.Errorf("update changed the cache: %d -> %d entries, %d -> %d evictions",
			size, e.answers.len(), before.AnswerEvictions, after.AnswerEvictions)
	}
	if after.CacheInvalidations != before.CacheInvalidations+1 {
		t.Errorf("CacheInvalidations = %d, want %d", after.CacheInvalidations, before.CacheInvalidations+1)
	}
	if after.CacheHits != before.CacheHits || after.CacheMisses != before.CacheMisses {
		t.Error("an update should not consume cache accesses")
	}
	want := yfilter.New(queries).Filter(live.collection(t))
	for i, q := range queries {
		el, ok := e.answers.byKey[q.String()]
		if !ok {
			t.Errorf("query %s is no longer cached", q)
			continue
		}
		if got := el.Value.(*answerEntry).docs; !slices.Equal(got, want[i]) {
			t.Errorf("query %s: cached answer %v, a fresh scan gives %v", q, got, want[i])
		}
	}
	resolved, err := e.ResolveAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics(); m.CacheMisses != after.CacheMisses {
		t.Errorf("re-resolve after the update missed: %d -> %d", after.CacheMisses, m.CacheMisses)
	}
	for i, q := range queries {
		if got := resolved[q.String()]; !slices.Equal(got, want[i]) {
			t.Errorf("query %s: resolved %v, a fresh scan gives %v", q, got, want[i])
		}
	}
}

func TestAnswersPatchedOnAdd(t *testing.T) {
	c, queries := fixture(t, 10, 8)
	e := newEngine(t, c, 100_000)
	if _, err := e.ResolveAll(queries); err != nil {
		t.Fatal(err)
	}
	if e.answers.len() == 0 {
		t.Fatal("no warm entries")
	}
	live := newLiveDocs(c)

	// A document no NITF query matches: unrelated root, so no answer moves.
	root, err := xmldoc.Parse(strings.NewReader("<zzz><unmatched/></zzz>"))
	if err != nil {
		t.Fatal(err)
	}
	alien := xmldoc.NewDocument(9001, root)
	live[alien.ID] = alien
	applyPatched(t, e, queries, live, func() error { return e.AddDocument(alien) })

	// A new document of the fixture's schema: the answers it matches gain it.
	more, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 1, Seed: 77, FirstID: 500})
	if err != nil {
		t.Fatal(err)
	}
	fresh := more.Docs()[0]
	live[fresh.ID] = fresh
	applyPatched(t, e, queries, live, func() error { return e.AddDocument(fresh) })
	gained := 0
	for _, q := range queries {
		if docs, _ := e.Resolve(q); xmldoc.HasID(docs, fresh.ID) {
			gained++
		}
	}
	if gained == 0 {
		t.Fatal("the added document matches no warm query: the patch was not exercised")
	}

	// Removing a result document and adding it back restores the answer.
	victimQuery := queries[0]
	original, err := e.Resolve(victimQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(original) == 0 {
		t.Fatal("fixture query 0 matches nothing")
	}
	matched := c.ByID(original[0])
	delete(live, matched.ID)
	applyPatched(t, e, queries, live, func() error { return e.RemoveDocument(matched.ID) })
	live[matched.ID] = matched
	applyPatched(t, e, queries, live, func() error { return e.AddDocument(matched) })
	if restored, _ := e.Resolve(victimQuery); !slices.Equal(restored, original) {
		t.Errorf("after remove and re-add: %v, want %v", restored, original)
	}
}

func TestAnswersPatchedOnRemove(t *testing.T) {
	c, queries := fixture(t, 10, 8)
	e := newEngine(t, c, 100_000)
	answers, err := e.ResolveAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	live := newLiveDocs(c)
	victim := c.Docs()[0].ID
	contained := 0
	for _, q := range queries {
		if xmldoc.HasID(answers[q.String()], victim) {
			contained++
		}
	}
	if contained == 0 {
		t.Fatalf("document %d is in no warm answer: the patch was not exercised", victim)
	}
	delete(live, victim)
	applyPatched(t, e, queries, live, func() error { return e.RemoveDocument(victim) })

	// Removing every result of one query leaves it cached with an empty
	// answer, which is what admission refuses a query on.
	q := xpath.MustParse("/nitf/head/onlyhere")
	only := xmldoc.NewDocument(9002, xmldoc.El("nitf", xmldoc.El("head", xmldoc.El("onlyhere"))))
	live[only.ID] = only
	if err := e.AddDocument(only); err != nil {
		t.Fatal(err)
	}
	queries = append(slices.Clone(queries), q)
	if docs, _ := e.Resolve(q); !slices.Equal(docs, []xmldoc.DocID{only.ID}) {
		t.Fatalf("Resolve(%s) = %v, want [%d]", q, docs, only.ID)
	}
	delete(live, only.ID)
	applyPatched(t, e, queries, live, func() error { return e.RemoveDocument(only.ID) })
	if docs, err := e.Resolve(q); err != nil || len(docs) != 0 {
		t.Errorf("Resolve(%s) after its only result left = %v, %v", q, docs, err)
	}
}
