package netcast

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/journal"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// TestLiveCollectionUpdate publishes a brand-new document to a running
// server and checks a client can immediately query and retrieve it — the
// "fresh story hits the newsroom" flow.
func TestLiveCollectionUpdate(t *testing.T) {
	srv, coll := startServer(t, broadcast.TwoTierMode)

	fresh := xmldoc.NewDocument(5000, xmldoc.El("nitf",
		xmldoc.El("head", xmldoc.El("breaking", xmldoc.El("alert")))))
	if err := srv.AddDocument(fresh); err != nil {
		t.Fatalf("AddDocument: %v", err)
	}
	if srv.NumDocs() != coll.Len()+1 {
		t.Errorf("NumDocs = %d", srv.NumDocs())
	}

	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	q := xpath.MustParse("/nitf/head/breaking/alert")
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	docs, _, err := cl.Retrieve(ctx, q)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	if len(docs) != 1 || docs[0].ID != 5000 {
		t.Fatalf("retrieved %v, want the fresh document", docs)
	}
	if docs[0].Root.Child("head").Child("breaking") == nil {
		t.Error("fresh document content mangled")
	}
}

// TestLiveRemovalRejectsQueries retires a document and checks queries only
// it satisfied are rejected afterwards.
func TestLiveRemovalRejectsQueries(t *testing.T) {
	srv, _ := startServer(t, broadcast.TwoTierMode)
	unique := xmldoc.NewDocument(6000, xmldoc.El("nitf",
		xmldoc.El("head", xmldoc.El("onlyhere"))))
	if err := srv.AddDocument(unique); err != nil {
		t.Fatalf("AddDocument: %v", err)
	}
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	q := xpath.MustParse("/nitf/head/onlyhere")
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit before removal: %v", err)
	}
	if err := srv.RemoveDocument(6000); err != nil {
		t.Fatalf("RemoveDocument: %v", err)
	}
	// The earlier pending request was satisfied-by-removal; the doc count
	// is back and a fresh submission is rejected as unsatisfiable.
	if err := cl.Submit(q); err == nil {
		t.Error("query for a removed document accepted")
	}
	if err := srv.RemoveDocument(6000); err == nil {
		t.Error("double removal succeeded")
	}
}

// TestLiveUpdateConsistency hammers add/query/remove cycles and checks the
// server's index always answers from the current collection.
func TestLiveUpdateConsistency(t *testing.T) {
	srv, _ := startServer(t, broadcast.TwoTierMode)
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	q := xpath.MustParse("/nitf/head/rotating")
	var want []xmldoc.DocID
	for i := 0; i < 5; i++ {
		id := xmldoc.DocID(7000 + i)
		doc := xmldoc.NewDocument(id, xmldoc.El("nitf", xmldoc.El("head", xmldoc.El("rotating"))))
		if err := srv.AddDocument(doc); err != nil {
			t.Fatalf("AddDocument %d: %v", id, err)
		}
		want = append(want, id)
	}
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	docs, _, err := cl.Retrieve(ctx, q)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	got := make([]xmldoc.DocID, len(docs))
	for i, d := range docs {
		got[i] = d.ID
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("retrieved %v, want %v", got, want)
	}
}

// liveCollection returns the documents a test believes the server holds, in
// ID order — the order document-side evaluation emits sorted answers in.
func liveCollection(t *testing.T, live map[xmldoc.DocID]*xmldoc.Document) *xmldoc.Collection {
	t.Helper()
	ids := make([]xmldoc.DocID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	docs := make([]*xmldoc.Document, len(ids))
	for i, id := range ids {
		docs[i] = live[id]
	}
	c, err := xmldoc.NewCollection(docs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLiveUpdatesKeepAnswersWarm alternates collection updates with
// submissions over sockets. A write patches the engine's cached answers, so a
// request submitted after AddDocument returns retrieves the new document, one
// submitted after RemoveDocument returns never receives the removed one, a
// query a removal emptied is refused — and none of it is a cache miss: after
// warm-up the server answers every submission from answers it kept current.
func TestLiveUpdatesKeepAnswersWarm(t *testing.T) {
	srv, coll := startServer(t, broadcast.TwoTierMode)
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	live := make(map[xmldoc.DocID]*xmldoc.Document)
	for _, d := range coll.Docs() {
		live[d.ID] = d
	}
	updates := int64(0)
	add := func(d *xmldoc.Document) {
		t.Helper()
		if err := srv.AddDocument(d); err != nil {
			t.Fatalf("AddDocument %d: %v", d.ID, err)
		}
		live[d.ID] = d
		updates++
	}
	remove := func(id xmldoc.DocID) {
		t.Helper()
		if err := srv.RemoveDocument(id); err != nil {
			t.Fatalf("RemoveDocument %d: %v", id, err)
		}
		delete(live, id)
		updates++
	}
	// retrieve submits q, retrieves it, and checks the documents — IDs and
	// bytes — against the collection as it stands.
	retrieve := func(q xpath.Path) []xmldoc.DocID {
		t.Helper()
		if err := cl.Submit(q); err != nil {
			t.Fatalf("Submit %s: %v", q, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		docs, _, err := cl.Retrieve(ctx, q)
		if err != nil {
			t.Fatalf("Retrieve %s: %v", q, err)
		}
		now := liveCollection(t, live)
		want := q.MatchingDocs(now)
		checkRetrieved(t, now, docs, want)
		return want
	}

	pool, err := gen.Queries(coll, gen.QueryConfig{NumQueries: 12, MaxDepth: 4, WildcardProb: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	only := xpath.MustParse("/nitf/head/onlyhere")
	add(xmldoc.NewDocument(6000, xmldoc.El("nitf", xmldoc.El("head", xmldoc.El("onlyhere")))))
	for _, q := range append(slices.Clone(pool), only) {
		retrieve(q)
	}
	warm := srv.Stats().Engine
	updates = 0

	extra, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 4, Seed: 78, FirstID: 8000})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range extra.Docs() {
		add(d)
		var q xpath.Path
		for j := range pool {
			if q = pool[(i*5+j)%len(pool)]; q.MatchesDocument(d) {
				break
			}
		}
		if got := retrieve(q); !xmldoc.HasID(got, d.ID) {
			t.Fatalf("%s submitted after AddDocument(%d) returned does not retrieve it: %v", q, d.ID, got)
		}
		// Retire the new document and one of the query's older results in turn.
		victim := d.ID
		if i%2 == 1 {
			victim = q.MatchingDocs(liveCollection(t, live))[0]
		}
		remove(victim)
		if len(q.MatchingDocs(liveCollection(t, live))) == 0 {
			continue
		}
		if got := retrieve(q); xmldoc.HasID(got, victim) {
			t.Fatalf("%s submitted after RemoveDocument(%d) returned still expects it: %v", q, victim, got)
		}
	}

	remove(6000)
	if err := cl.Submit(only); err == nil || !strings.Contains(err.Error(), "empty result set") {
		t.Errorf("Submit of a query a removal emptied: err = %v, want an empty-result-set refusal", err)
	}

	after := srv.Stats().Engine
	if after.CacheMisses != warm.CacheMisses {
		t.Errorf("CacheMisses grew from %d to %d after warm-up: updates cost re-resolves", warm.CacheMisses, after.CacheMisses)
	}
	if after.AnswerEvictions != warm.AnswerEvictions {
		t.Errorf("AnswerEvictions grew from %d to %d: updates evicted answers", warm.AnswerEvictions, after.AnswerEvictions)
	}
	if got := after.CacheInvalidations - warm.CacheInvalidations; got != updates {
		t.Errorf("CacheInvalidations advanced by %d over %d updates", got, updates)
	}
}

// TestRestartOverDriftedCollection restarts a journaled server over a
// collection that changed while it was down. Recovery re-resolves every
// recovered query — one walk of the new collection's CI each — and keeps of a
// request's remaining set only what still answers its query; what is left
// must be what a fresh scan of the new collection says, and the cycle loop
// must be able to serve it.
func TestRestartOverDriftedCollection(t *testing.T) {
	coll := testCollection(t)
	dir := t.TempDir()
	// A one-minute interval: nothing airs, so every remaining set is whole
	// when the server dies.
	srv := startJournaledServer(t, coll, dir, time.Minute, 1)
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	gone := xpath.MustParse("/nitf/head/onlyhere") // its one result will not survive the drift
	if err := srv.AddDocument(xmldoc.NewDocument(6000, xmldoc.El("nitf", xmldoc.El("head", xmldoc.El("onlyhere"))))); err != nil {
		t.Fatal(err)
	}
	queries := []xpath.Path{
		xpath.MustParse("/nitf/body/body.content/block"),
		xpath.MustParse("/nitf/head/title"),
		xpath.MustParse("/nitf//p"),
		gone,
	}
	for _, q := range queries {
		if err := cl.Submit(q); err != nil {
			t.Fatalf("Submit %s: %v", q, err)
		}
	}
	cl.Close()
	srv.Kill()

	// While it was down: three documents left, two arrived (which recovered
	// requests never asked for), document 6000 is gone.
	more, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 2, Seed: 79, FirstID: 300})
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := xmldoc.NewCollection(append(slices.Clone(coll.Docs()[3:]), more.Docs()...))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := startJournaledServer(t, drifted, dir, 250*time.Millisecond, 1)
	defer srv2.Shutdown()

	want := make(map[string][]xmldoc.DocID)
	for _, q := range queries {
		var rem []xmldoc.DocID
		for _, id := range q.MatchingDocs(drifted) { // a fresh scan of what is there now …
			if coll.ByID(id) != nil { // … of which the request was promised the part that already existed
				rem = append(rem, id)
			}
		}
		if len(rem) > 0 {
			want[q.String()] = rem
		}
	}
	if _, ok := want[gone.String()]; ok || len(want) != len(queries)-1 {
		t.Fatalf("fixture: want %d surviving requests without %s, have %v", len(queries)-1, gone, want)
	}
	if srv2.RecoveredPending() != len(want) {
		t.Errorf("recovered %d pending, want %d", srv2.RecoveredPending(), len(want))
	}
	for _, r := range pendingOf(t, srv2) {
		if !slices.Equal(r.Remaining, want[r.Query.String()]) {
			t.Errorf("recovered %s: remaining %v, a fresh scan leaves %v", r.Query, r.Remaining, want[r.Query.String()])
		}
	}
	if m := srv2.Stats().Engine; m.CacheMisses != int64(len(queries)) || m.CacheHits != 0 {
		t.Errorf("recovery resolved with %d misses and %d hits, want one CI walk per recovered query (%d)", m.CacheMisses, m.CacheHits, len(queries))
	}

	// What was recovered is schedulable: the cycle loop serves every request
	// to the end without chasing a document that is no longer there.
	deadline := time.Now().Add(15 * time.Second)
	for srv2.Pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if st := srv2.Stats(); st.Pending != 0 || st.CycleError != "" {
		t.Errorf("recovered requests not served: %d pending, cycle error %q", st.Pending, st.CycleError)
	}
}

// TestRestartAfterDriftedRecovery: what a recovery over a drifted collection
// cuts from the recovered remaining sets is journaled. A further restart —
// after a clean Shutdown, over the same collection, so there is no drift left
// to detect — must start from the cut sets, not from stale ones naming
// documents the collection no longer holds, and serve them to the end.
func TestRestartAfterDriftedRecovery(t *testing.T) {
	coll := testCollection(t)
	dir := t.TempDir()
	srv := startJournaledServer(t, coll, dir, time.Minute, 1)
	if _, _, err := srv.submit("/nitf//p"); err != nil {
		t.Fatalf("submit: %v", err)
	}
	srv.Kill()

	more, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 2, Seed: 79, FirstID: 300})
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := xmldoc.NewCollection(append(slices.Clone(coll.Docs()[3:]), more.Docs()...))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := startJournaledServer(t, drifted, dir, time.Minute, 1)
	// The state directory, which Shutdown compacts, holds the cut sets.
	st, err := journal.ReadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range st.Pending {
		for _, d := range r.Remaining {
			if drifted.ByID(xmldoc.DocID(d)) == nil {
				t.Errorf("journal still holds document %d for %s after the recovery cut it", d, r.Query)
			}
		}
	}
	srv2.Shutdown()

	srv3 := startJournaledServer(t, drifted, dir, 5*time.Millisecond, 1)
	defer srv3.Shutdown()
	if srv3.RecoveredPending() != 1 {
		t.Fatalf("third start recovered %d pending, want 1", srv3.RecoveredPending())
	}
	for _, r := range pendingOf(t, srv3) {
		for _, id := range r.Remaining {
			if drifted.ByID(id) == nil {
				t.Errorf("recovered %s still wants document %d, which the collection does not hold", r.Query, id)
			}
		}
	}
	waitFor(t, "the recovered request to be served", func() bool {
		st := srv3.Stats()
		return st.Pending == 0 || st.CycleError != ""
	})
	if st := srv3.Stats(); st.CycleError != "" {
		t.Errorf("cycle loop died: %s", st.CycleError)
	}
}
