package netcast

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/netcast/chaos"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// startJournaledServer starts a server on stateDir with the given cycle
// interval and channel count. The caller owns the shutdown (tests restart
// servers mid-test, so no t.Cleanup here).
func startJournaledServer(t *testing.T, coll *xmldoc.Collection, stateDir string, interval time.Duration, channels int) *Server {
	t.Helper()
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		Channels:      channels,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: interval,
		StateDir:      stateDir,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	return srv
}

// retrieveIDs runs one retrieval and returns the document IDs.
func retrieveIDs(t *testing.T, cl *Client, q xpath.Path) []xmldoc.DocID {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	docs, _, err := cl.Retrieve(ctx, q)
	if err != nil {
		t.Fatalf("Retrieve %s: %v", q, err)
	}
	ids := make([]xmldoc.DocID, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	return ids
}

// TestServerRestartResumePending kills a journaled server before any cycle
// airs and restarts it on the same state directory: every acked submission
// is recovered, the session-resume handshake re-attaches it without a
// resubmit, and the restarted server broadcasts the full result sets.
func TestServerRestartResumePending(t *testing.T) {
	coll := testCollection(t)
	dir := t.TempDir()
	// A one-minute interval guarantees nothing airs before the kill: the
	// pending set exists only in the journal when the server dies.
	srv := startJournaledServer(t, coll, dir, time.Minute, 1)
	if srv.Generation() != 1 {
		t.Fatalf("fresh state dir generation = %d, want 1", srv.Generation())
	}
	epoch := srv.Epoch()

	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	queries := []xpath.Path{
		xpath.MustParse("/nitf/body/body.content/block"),
		xpath.MustParse("/nitf/head/title"),
		xpath.MustParse("/nitf//p"),
	}
	for _, q := range queries {
		if err := cl.Submit(q); err != nil {
			t.Fatalf("Submit %s: %v", q, err)
		}
	}
	session := cl.Session()
	cl.Close()
	if session == nil || len(session.Entries) != len(queries) {
		t.Fatalf("session = %+v, want %d entries", session, len(queries))
	}

	srv.Kill()

	// The restarted server's first cycle fires one interval after start:
	// 250ms leaves room to dial, resume and start listening before the
	// recovered requests begin airing (once one request's documents air
	// and retire it, a client not yet listening would wait forever).
	srv2 := startJournaledServer(t, coll, dir, 250*time.Millisecond, 1)
	defer srv2.Shutdown()
	if srv2.Epoch() != epoch {
		t.Fatalf("restart changed epoch: %d != %d", srv2.Epoch(), epoch)
	}
	if srv2.Generation() != 2 {
		t.Fatalf("restart generation = %d, want 2", srv2.Generation())
	}
	if srv2.RecoveredPending() != len(queries) {
		t.Fatalf("recovered %d pending, want %d", srv2.RecoveredPending(), len(queries))
	}
	st := srv2.Stats()
	if st.Epoch != epoch || st.Generation != 2 || st.RecoveredPending != len(queries) {
		t.Fatalf("stats = %+v", st)
	}

	cl2, err := Dial(srv2.UplinkAddr(), srv2.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial restarted: %v", err)
	}
	defer cl2.Close()
	cl2.AdoptSession(session)
	statuses, err := cl2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if len(statuses) != len(queries) {
		t.Fatalf("%d resume statuses, want %d", len(statuses), len(queries))
	}
	for _, rs := range statuses {
		if rs.Status != ResumeResumed {
			t.Errorf("request %d (%s) status = %d, want resumed", rs.ID, rs.Query, rs.Status)
		}
	}
	if got := cl2.Session(); got.Epoch != epoch || got.Generation != 2 {
		t.Errorf("session identity = %d/%d, want %d/2", got.Epoch, got.Generation, epoch)
	}
	// All three recovered requests air on the same cycles, so the
	// retrievals must listen concurrently: the resumed client takes one
	// query, fresh listen-only dials take the others.
	retrieveConcurrently(t, coll, listeners(t, srv2, cl2, len(queries)), queries)()
}

// listeners returns first followed by n-1 fresh listen-only clients of srv,
// closed when the test ends.
func listeners(t *testing.T, srv *Server, first *Client, n int) []*Client {
	t.Helper()
	clients := []*Client{first}
	for len(clients) < n {
		cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
		if err != nil {
			t.Fatalf("Dial listener: %v", err)
		}
		t.Cleanup(func() { cl.Close() })
		clients = append(clients, cl)
	}
	return clients
}

// retrieveConcurrently starts retrieving queries[i] on clients[i] and returns
// a function that waits for every retrieval and checks it byte for byte
// against coll. Requests that air on the same cycles must be listened for at
// once: a client that starts listening after its request retired would wait
// forever.
func retrieveConcurrently(t *testing.T, coll *xmldoc.Collection, clients []*Client, queries []xpath.Path) (wait func()) {
	type result struct {
		q    xpath.Path
		docs []*xmldoc.Document
		err  error
	}
	results := make(chan result, len(queries))
	for i, q := range queries {
		go func(cl *Client, q xpath.Path) {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			docs, _, err := cl.Retrieve(ctx, q)
			results <- result{q: q, docs: docs, err: err}
		}(clients[i], q)
	}
	return func() {
		t.Helper()
		for range queries {
			r := <-results
			if r.err != nil {
				t.Errorf("Retrieve %s: %v", r.q, r.err)
				continue
			}
			checkRetrieved(t, coll, r.docs, r.q.MatchingDocs(coll))
		}
	}
}

// TestRestartUnderLowerPendingCap restarts a journaled server with a pending
// cap below the number of requests it recovers. The cap is admission's alone:
// the recovered set still airs in full, to a resumed client, and new
// submissions are refused with a retryable reject only while the set is at
// the cap, then admitted.
func TestRestartUnderLowerPendingCap(t *testing.T) {
	coll := testCollection(t)
	dir := t.TempDir()
	srv := startJournaledServer(t, coll, dir, time.Minute, 1)
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	queries := []xpath.Path{
		xpath.MustParse("/nitf/body/body.content/block"),
		xpath.MustParse("/nitf/head/title"),
		xpath.MustParse("/nitf//p"),
	}
	for _, q := range queries {
		if err := cl.Submit(q); err != nil {
			t.Fatalf("Submit %s: %v", q, err)
		}
	}
	session := cl.Session()
	cl.Close()
	srv.Kill()

	const maxPending = 2
	srv2, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 250 * time.Millisecond,
		StateDir:      dir,
		MaxPending:    maxPending,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Shutdown()
	if got := srv2.RecoveredPending(); got != len(queries) {
		t.Fatalf("recovered %d pending, want %d", got, len(queries))
	}

	cl2, err := Dial(srv2.UplinkAddr(), srv2.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial restarted: %v", err)
	}
	defer cl2.Close()
	cl2.AdoptSession(session)
	statuses, err := cl2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	for _, rs := range statuses {
		if rs.Status != ResumeResumed {
			t.Errorf("request %d (%s) status = %d, want resumed", rs.ID, rs.Query, rs.Status)
		}
	}
	wait := retrieveConcurrently(t, coll, listeners(t, srv2, cl2, len(queries)), queries)

	// Over the cap, before the first cycle retires anything: refused, with a
	// hint to come back.
	late, err := Dial(srv2.UplinkAddr(), srv2.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial late: %v", err)
	}
	defer late.Close()
	q := xpath.MustParse("/nitf/head")
	err = late.Submit(q)
	var rej *RejectedError
	if !errors.As(err, &rej) || !errors.Is(err, engine.ErrOverload) || rej.RetryAfter <= 0 {
		t.Fatalf("Submit over the cap: err = %v, want a RejectedError with a retry-after hint", err)
	}

	// The cap is admission's: the first cycle airs the whole recovered set.
	for deadline := time.Now().Add(10 * time.Second); srv2.Stats().Engine.Cycles == 0; time.Sleep(5 * time.Millisecond) {
		if st := srv2.Stats(); st.CycleError != "" || time.Now().After(deadline) {
			t.Fatalf("no cycle assembled: cycle error %q", st.CycleError)
		}
	}

	// Admitted once the recovered set drains below the cap.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := late.SubmitRetry(ctx, q); err != nil {
		t.Fatalf("SubmitRetry: %v (stats %+v)", err, srv2.Stats())
	}
	if st := srv2.Stats(); st.Pending > maxPending {
		t.Errorf("pending %d after an admission, cap %d", st.Pending, maxPending)
	}
	wait()
	retrieveConcurrently(t, coll, []*Client{late}, []xpath.Path{q})()
	if st := srv2.Stats(); st.CycleError != "" || st.RejectedPending == 0 {
		t.Errorf("stats = %+v, want a live cycle loop and a pending-cap rejection", st)
	}
}

// TestServerRestartAlreadyServed restarts a server whose request was fully
// served and gracefully shut down: the resume handshake reports the request
// as served (with its retiring cycle) instead of pending, and the client's
// lifetime Resumed counter stays untouched.
func TestServerRestartAlreadyServed(t *testing.T) {
	coll := testCollection(t)
	dir := t.TempDir()
	srv := startJournaledServer(t, coll, dir, 5*time.Millisecond, 1)

	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	q := xpath.MustParse("/nitf/head/title")
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if ids := retrieveIDs(t, cl, q); len(ids) == 0 {
		t.Fatalf("retrieved nothing")
	}
	// The server retires the request when its documents have been sent;
	// wait for the covering cycle's journal commit before shutting down.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("request still pending after retrieval")
		}
		time.Sleep(2 * time.Millisecond)
	}
	session := cl.Session()
	cl.Close()
	srv.Shutdown()

	srv2 := startJournaledServer(t, coll, dir, 5*time.Millisecond, 1)
	defer srv2.Shutdown()
	if srv2.RecoveredPending() != 0 {
		t.Fatalf("recovered %d pending, want 0", srv2.RecoveredPending())
	}
	cl2, err := Dial(srv2.UplinkAddr(), srv2.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial restarted: %v", err)
	}
	defer cl2.Close()
	cl2.AdoptSession(session)
	statuses, err := cl2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if len(statuses) != 1 || statuses[0].Status != ResumeServed {
		t.Fatalf("statuses = %+v, want one served", statuses)
	}
	if statuses[0].Detail < 0 {
		t.Errorf("served detail (retiring cycle) = %d", statuses[0].Detail)
	}
}

// TestServerRestartFreshDirResubmit resumes against a server with a fresh
// state directory (the journal lineage is gone): the handshake reports
// resubmit, the query is re-registered under a new ID, and the retrieval
// still completes.
func TestServerRestartFreshDirResubmit(t *testing.T) {
	coll := testCollection(t)
	srv := startJournaledServer(t, coll, t.TempDir(), time.Minute, 1)
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	q := xpath.MustParse("/nitf/body/body.content/block")
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	session := cl.Session()
	oldID := session.Entries[0].ID
	cl.Close()
	srv.Kill()

	// Different directory: a server that lost its disk.
	srv2 := startJournaledServer(t, coll, t.TempDir(), 5*time.Millisecond, 1)
	defer srv2.Shutdown()
	cl2, err := Dial(srv2.UplinkAddr(), srv2.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl2.Close()
	cl2.AdoptSession(session)
	statuses, err := cl2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if len(statuses) != 1 || statuses[0].Status != ResumeResubmit {
		t.Fatalf("statuses = %+v, want one resubmit", statuses)
	}
	if statuses[0].NewID == 0 || statuses[0].NewID == oldID && srv2.Epoch() == srv.Epoch() {
		t.Errorf("resubmit did not register a replacement ID: %+v", statuses[0])
	}
	want := q.MatchingDocs(coll)
	if got := retrieveIDs(t, cl2, q); !reflect.DeepEqual(got, want) {
		t.Errorf("retrieved %v, want %v", got, want)
	}
}

// TestServerRestartMultichannel restarts a K=4 server with recovered pending
// state: the resumed client's CoveredFrom follows the handshake and the
// multichannel retrieval completes — the striped cycle commitments are
// honored by the restarted process.
func TestServerRestartMultichannel(t *testing.T) {
	coll := testCollection(t)
	dir := t.TempDir()
	srv := startJournaledServer(t, coll, dir, time.Minute, 4)
	cl, err := DialChannels(srv.UplinkAddr(), srv.ChannelAddrs(), core.SizeModel{})
	if err != nil {
		t.Fatalf("DialChannels: %v", err)
	}
	q := xpath.MustParse("/nitf/body/body.content/block")
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	session := cl.Session()
	cl.Close()
	srv.Kill()

	// 250ms first-cycle delay: resume and start listening before the
	// recovered request airs (and retires).
	srv2 := startJournaledServer(t, coll, dir, 250*time.Millisecond, 4)
	defer srv2.Shutdown()
	if srv2.RecoveredPending() != 1 {
		t.Fatalf("recovered %d pending, want 1", srv2.RecoveredPending())
	}
	cl2, err := DialChannels(srv2.UplinkAddr(), srv2.ChannelAddrs(), core.SizeModel{})
	if err != nil {
		t.Fatalf("DialChannels restarted: %v", err)
	}
	defer cl2.Close()
	cl2.AdoptSession(session)
	statuses, err := cl2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if len(statuses) != 1 || statuses[0].Status != ResumeResumed {
		t.Fatalf("statuses = %+v, want one resumed", statuses)
	}
	if cl2.CoveredFrom() != statuses[0].Detail {
		t.Errorf("CoveredFrom = %d, want handshake detail %d", cl2.CoveredFrom(), statuses[0].Detail)
	}
	want := q.MatchingDocs(coll)
	if got := retrieveIDs(t, cl2, q); !reflect.DeepEqual(got, want) {
		t.Errorf("retrieved %v, want %v", got, want)
	}
}

// TestServerCrashMidPipeline wires a chaos.Crasher probe to Server.Crash: the
// process "dies" at a deterministic pipeline stage with clients connected,
// and a restart on the same directory recovers every acked request.
func TestServerCrashMidPipeline(t *testing.T) {
	coll := testCollection(t)
	dir := t.TempDir()
	fired := make(chan struct{})
	crasher := chaos.NewCrasher(11, 3, func() { close(fired) })
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
		StateDir:      dir,
		Probe:         crasher,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	go func() {
		<-fired
		srv.Crash()
	}()

	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	// Submit until the crash point is reached (the pipeline only runs while
	// requests are pending); acked submissions are durable by then.
	acked := make(map[int64]string)
	queries := []string{"/nitf/head/title", "/nitf//p", "/nitf/body/body.content/block"}
	deadline := time.Now().Add(10 * time.Second)
loop:
	for i := 0; ; i++ {
		select {
		case <-fired:
			break loop
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("crash point never reached (stage %q at %d)", crasher.Stage(), crasher.At())
		}
		q := xpath.MustParse(queries[i%len(queries)])
		if err := cl.Submit(q); err == nil {
			n := len(cl.Session().Entries)
			e := cl.Session().Entries[n-1]
			acked[e.ID] = e.Query
		}
		time.Sleep(2 * time.Millisecond)
	}
	session := cl.Session()
	cl.Close()
	srv.Kill() // waits for the async teardown Crash started
	if len(acked) == 0 {
		t.Fatalf("no submission was acked before the crash")
	}

	srv2 := startJournaledServer(t, coll, dir, 5*time.Millisecond, 1)
	defer srv2.Shutdown()
	cl2, err := Dial(srv2.UplinkAddr(), srv2.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial restarted: %v", err)
	}
	defer cl2.Close()
	cl2.AdoptSession(session)
	statuses, err := cl2.Resume()
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	for _, st := range statuses {
		if st.Status == ResumeResubmit {
			t.Errorf("acked request %d (%s) lost across crash", st.ID, st.Query)
		}
	}
}

// TestShutdownFlushesJournal proves the graceful-shutdown durability
// guarantee: every submission acked before Shutdown returns is in the
// journal afterwards, closed with a clean (untorn) final snapshot.
func TestShutdownFlushesJournal(t *testing.T) {
	coll := testCollection(t)
	dir := t.TempDir()
	srv := startJournaledServer(t, coll, dir, time.Minute, 1)
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	queries := []xpath.Path{
		xpath.MustParse("/nitf/head/title"),
		xpath.MustParse("/nitf//p"),
	}
	for _, q := range queries {
		if err := cl.Submit(q); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	session := cl.Session()
	cl.Close()
	srv.Shutdown()

	jn, st, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("journal.Open after shutdown: %v", err)
	}
	defer jn.Close()
	if st.Truncated {
		t.Errorf("graceful shutdown left a torn journal tail")
	}
	if len(st.Pending) != len(queries) {
		t.Fatalf("journal holds %d pending, want %d", len(st.Pending), len(queries))
	}
	for i, e := range session.Entries {
		if st.Pending[i].ID != e.ID || st.Pending[i].Query != e.Query {
			t.Errorf("journal entry %d = %d/%q, acked %d/%q",
				i, st.Pending[i].ID, st.Pending[i].Query, e.ID, e.Query)
		}
	}
}

// TestCrashRecoverySoak is the kill/recover loop the CI crash-chaos step
// runs under -race: repeated submit → kill (sometimes with a torn journal
// tail) → restart → resume rounds, asserting after every round that no acked
// request was lost, and finishing with full retrievals.
func TestCrashRecoverySoak(t *testing.T) {
	coll := testCollection(t)
	dir := t.TempDir()
	queries := []string{"/nitf/head/title", "/nitf//p", "/nitf/body/body.content/block"}
	var session *ClientSession
	var epoch uint64
	const rounds = 4
	for round := 0; round < rounds; round++ {
		srv := startJournaledServer(t, coll, dir, 3*time.Millisecond, 1)
		if epoch == 0 {
			epoch = srv.Epoch()
		} else if srv.Epoch() != epoch {
			t.Fatalf("round %d: epoch drifted %d -> %d", round, epoch, srv.Epoch())
		}
		if got := srv.Generation(); got != uint32(round+1) {
			t.Fatalf("round %d: generation = %d, want %d", round, got, round+1)
		}
		cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
		if err != nil {
			t.Fatalf("round %d: Dial: %v", round, err)
		}
		if session != nil {
			cl.AdoptSession(session)
			statuses, err := cl.Resume()
			if err != nil {
				t.Fatalf("round %d: Resume: %v", round, err)
			}
			for _, st := range statuses {
				if st.Status == ResumeResubmit {
					t.Errorf("round %d: acked request %d (%s) lost", round, st.ID, st.Query)
				}
			}
		}
		q := xpath.MustParse(queries[round%len(queries)])
		if err := cl.Submit(q); err != nil {
			t.Fatalf("round %d: Submit: %v", round, err)
		}
		if round == rounds-1 {
			// Final round: the survivor drains its retrieval cleanly.
			want := q.MatchingDocs(coll)
			if got := retrieveIDs(t, cl, q); !reflect.DeepEqual(got, want) {
				t.Errorf("final retrieval %v, want %v", got, want)
			}
			cl.Close()
			srv.Shutdown()
			break
		}
		// Let a couple of cycles air so some rounds kill mid-service, then
		// crash — every other round with a torn journal tail.
		time.Sleep(10 * time.Millisecond)
		if round%2 == 1 {
			srv.CrashJournalAfter(64)
			// Poke the journal so the torn write lands before the kill.
			_ = cl.Submit(xpath.MustParse("/nitf/head/title"))
		}
		session = cl.Session()
		cl.Close()
		srv.Kill()
	}
}

// TestResumeFrameRoundTrip exercises the protocol-v3 session-resume frame
// codecs, including their defensive limits.
func TestResumeFrameRoundTrip(t *testing.T) {
	ids := []int64{1, 7, 1 << 40, 9999}
	payload, err := encodeResume(ids)
	if err != nil {
		t.Fatalf("encodeResume: %v", err)
	}
	got, err := decodeResume(payload)
	if err != nil {
		t.Fatalf("decodeResume: %v", err)
	}
	if !reflect.DeepEqual(got, ids) {
		t.Errorf("resume round trip = %v, want %v", got, ids)
	}
	if empty, err := decodeResume([]byte{0, 0}); err != nil || len(empty) != 0 {
		t.Errorf("empty resume = %v, %v", empty, err)
	}
	if _, err := encodeResume(make([]int64, maxResumeIDs+1)); err == nil {
		t.Errorf("encodeResume accepted %d IDs", maxResumeIDs+1)
	}
	if _, err := decodeResume(payload[:len(payload)-3]); err == nil {
		t.Errorf("decodeResume accepted a truncated payload")
	}
	if _, err := decodeResume([]byte{5}); err == nil {
		t.Errorf("decodeResume accepted a headerless payload")
	}

	entries := []resumeEntry{
		{ID: 3, Status: ResumeResumed, Detail: 41},
		{ID: 9, Status: ResumeServed, Detail: 12},
		{ID: 44, Status: ResumeResubmit, Detail: 0},
	}
	ack, err := encodeResumeAck(0xFEEDFACE, 7, entries)
	if err != nil {
		t.Fatalf("encodeResumeAck: %v", err)
	}
	epoch, gen, dec, err := decodeResumeAck(ack)
	if err != nil {
		t.Fatalf("decodeResumeAck: %v", err)
	}
	if epoch != 0xFEEDFACE || gen != 7 || !reflect.DeepEqual(dec, entries) {
		t.Errorf("ack round trip = %x/%d/%v", epoch, gen, dec)
	}
	if _, err := encodeResumeAck(1, 1, make([]resumeEntry, maxResumeIDs+1)); err == nil {
		t.Errorf("encodeResumeAck accepted %d entries", maxResumeIDs+1)
	}
	if _, _, _, err := decodeResumeAck(ack[:len(ack)-1]); err == nil {
		t.Errorf("decodeResumeAck accepted a truncated payload")
	}
	if _, _, _, err := decodeResumeAck(ack[:10]); err == nil {
		t.Errorf("decodeResumeAck accepted a headerless payload")
	}
	bad := append([]byte(nil), ack...)
	bad[14+8] = ResumeResubmit + 1 // first entry's status byte
	if _, _, _, err := decodeResumeAck(bad); err == nil {
		t.Errorf("decodeResumeAck accepted an invalid status byte")
	}
}

// TestResubmitQueueBounded is the regression test for the unbounded client
// resubmit queue: the queue holds at most resubmitQueueCap distinct queries,
// drops oldest-first, counts the drops, and deduplicates re-queues.
func TestResubmitQueueBounded(t *testing.T) {
	c := &Client{}
	const extra = 5
	queries := make([]xpath.Path, resubmitQueueCap+extra)
	for i := range queries {
		queries[i] = xpath.MustParse(fmt.Sprintf("/nitf/head/q%d", i))
		c.queueResubmit(queries[i])
	}
	if len(c.resubq) != resubmitQueueCap {
		t.Fatalf("queue holds %d queries, want cap %d", len(c.resubq), resubmitQueueCap)
	}
	if c.resubDrops != extra {
		t.Errorf("dropped %d queries, want %d", c.resubDrops, extra)
	}
	// The oldest entries were dropped: the queue starts at queries[extra].
	if c.resubq[0].String() != queries[extra].String() {
		t.Errorf("queue head = %s, want %s (drop-oldest)", c.resubq[0], queries[extra])
	}
	// Re-queueing a query already in the queue neither grows it nor drops.
	c.queueResubmit(queries[len(queries)-1])
	if len(c.resubq) != resubmitQueueCap || c.resubDrops != extra {
		t.Errorf("duplicate re-queue changed state: len=%d drops=%d", len(c.resubq), c.resubDrops)
	}
}

// TestResumeEpochMismatch: a session carries the epoch of the journal
// lineage that acked it. Presented to a server on a *different* lineage —
// whose journal may coincidentally hold a pending request under the same
// ID — every entry must degrade to a resubmit: the other lineage's
// "resumed" claim describes someone else's query.
func TestResumeEpochMismatch(t *testing.T) {
	coll := testCollection(t)
	q := xpath.MustParse("/nitf/head/title")

	// Lineage A: submit, then resume once so the session learns A's epoch.
	srvA := startJournaledServer(t, coll, t.TempDir(), time.Minute, 1)
	clA, err := Dial(srvA.UplinkAddr(), srvA.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial A: %v", err)
	}
	if err := clA.Submit(q); err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	if _, err := clA.Resume(); err != nil {
		t.Fatalf("Resume A: %v", err)
	}
	session := clA.Session()
	clA.Close()
	srvA.Kill()
	if session.Epoch == 0 || session.Epoch != srvA.Epoch() {
		t.Fatalf("session epoch = %d, want lineage A's %d", session.Epoch, srvA.Epoch())
	}

	// Lineage B: an unrelated journaled server whose journal holds a pending
	// request under the same durable ID (first admission on a fresh journal).
	srvB := startJournaledServer(t, coll, t.TempDir(), time.Minute, 1)
	defer srvB.Shutdown()
	clB, err := Dial(srvB.UplinkAddr(), srvB.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial B: %v", err)
	}
	if err := clB.Submit(xpath.MustParse("/nitf//p")); err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	clB.Close()

	// Without the epoch check, B would answer "resumed" for A's ID — it has
	// a pending request under that ID — silently adopting the wrong query.
	cl2, err := Dial(srvB.UplinkAddr(), srvB.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial B 2: %v", err)
	}
	defer cl2.Close()
	cl2.AdoptSession(session)
	statuses, err := cl2.Resume()
	if err != nil {
		t.Fatalf("Resume against B: %v", err)
	}
	if len(statuses) != 1 {
		t.Fatalf("got %d statuses, want 1", len(statuses))
	}
	if statuses[0].Status != ResumeResubmit {
		t.Fatalf("cross-lineage resume status = %d, want ResumeResubmit", statuses[0].Status)
	}
	if got := cl2.Session(); got.Epoch != srvB.Epoch() {
		t.Errorf("session did not adopt lineage B's epoch: %d != %d", got.Epoch, srvB.Epoch())
	}
	if cl2.resubmits != 1 {
		t.Errorf("resubmits = %d, want 1 (the forced cross-lineage resubmit)", cl2.resubmits)
	}
}
