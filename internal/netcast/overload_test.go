package netcast

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netcast/chaos"
	"repro/internal/xpath"
)

// TestSubmitRejectedByPendingCap pins the typed overload path: a submission
// over ServerConfig.MaxPending comes back as a RejectedError matching engine.ErrOverload
// (not a generic ack error), the connection survives the rejection, and
// SubmitRetry is admitted once the cycle retires the blocking request.
func TestSubmitRejectedByPendingCap(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: coll.TotalSize(), // one cycle retires any request
		CycleInterval: 300 * time.Millisecond,
		MaxPending:    1,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()

	q := xpath.MustParse("/nitf/head/title")
	clA, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial A: %v", err)
	}
	defer clA.Close()
	clB, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial B: %v", err)
	}
	defer clB.Close()

	if err := clA.Submit(q); err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	err = clB.Submit(xpath.MustParse("/nitf//p"))
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("Submit B over the cap: err = %v, want *RejectedError", err)
	}
	if !errors.Is(err, engine.ErrOverload) {
		t.Error("RejectedError does not match engine.ErrOverload")
	}
	if rej.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %s, want a positive hint", rej.RetryAfter)
	}
	if st := srv.Stats(); st.RejectedPending == 0 {
		t.Errorf("stats = %+v, want RejectedPending > 0", st)
	}

	// The same uplink connection stays usable, and the retry loop is
	// admitted once the broadcast retires A's request.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := clB.SubmitRetry(ctx, xpath.MustParse("/nitf//p")); err != nil {
		t.Fatalf("SubmitRetry B: %v", err)
	}
}

func TestUplinkRateLimit(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: coll.TotalSize(),
		CycleInterval: 5 * time.Millisecond,
		UplinkRate:    1, // 1 query/s, burst 2: the third rapid submit must bounce
		UplinkBurst:   2,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()

	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	q := xpath.MustParse("/nitf/head/title")
	var rejected *RejectedError
	for i := 0; i < 3; i++ {
		err := cl.Submit(q)
		if errors.As(err, &rejected) {
			break
		}
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if rejected == nil {
		t.Fatal("3 rapid submissions against burst 2 were all admitted")
	}
	if rejected.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %s, want a positive hint", rejected.RetryAfter)
	}
	if st := srv.Stats(); st.RejectedRate == 0 {
		t.Errorf("stats = %+v, want RejectedRate > 0", st)
	}
}

// TestOverloadFlood is the chaos acceptance test: a multi-worker flood of
// submissions (valid, duplicate and junk queries) drives sustained
// rejections while the bounded caches hold the heap inside a fixed envelope,
// and a concurrent legitimate client still retrieves byte-correct results.
func TestOverloadFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("flood test takes ~2s")
	}
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
		MaxPending:    8,
		Limits: engine.Limits{
			MaxAnswerCacheEntries: 16,
			MaxPayloadCacheBytes:  64 << 10,
		},
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()

	// The legitimate client registers before the flood starts, so its
	// request is in the pending set no matter how hard the flood hammers
	// the admission path.
	legit, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial legit: %v", err)
	}
	defer legit.Close()
	q := xpath.MustParse("/nitf/body/body.content/block")
	want := q.MatchingDocs(coll)
	if len(want) == 0 {
		t.Fatal("legit query matches nothing")
	}
	if err := legit.Submit(q); err != nil {
		t.Fatalf("Submit legit: %v", err)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Four flooding workers, each on its own uplink connection, submitting
	// flat out for ~1.5 s: pool queries compete for pending slots, and
	// endless distinct junk queries churn the bounded answer cache.
	pool := []string{"/nitf/head/title", "/nitf//p", "/nitf/body/body.content/block", "/nitf/head"}
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	floodClients := make([]*Client, 4)
	for i := range floodClients {
		floodClients[i], err = Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
		if err != nil {
			t.Fatalf("Dial flood %d: %v", i, err)
		}
		defer floodClients[i].Close()
	}
	floodDone := make(chan chaos.FloodStats, 1)
	go func() {
		floodDone <- chaos.Flood(ctx, len(floodClients), 0,
			func(worker, seq int) error {
				cl := floodClients[worker]
				if seq%2 == 0 {
					return cl.Submit(xpath.MustParse(pool[seq/2%len(pool)]))
				}
				// Distinct never-matching queries: resolved, memoized,
				// LRU-churned — the unbounded-memory attack this PR closes.
				return cl.Submit(xpath.MustParse(fmt.Sprintf("/nitf/zzz%d_%d/x", worker, seq)))
			},
			func(err error) bool { return errors.Is(err, engine.ErrOverload) })
	}()

	// Retrieve concurrently with the flood.
	rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer rcancel()
	docs, _, err := legit.Retrieve(rctx, q)
	if err != nil {
		t.Fatalf("Retrieve during flood: %v", err)
	}
	checkRetrieved(t, coll, docs, want)

	flood := <-floodDone
	st := srv.Stats()
	t.Logf("flood: %+v", flood)
	t.Logf("server: rejectedPending=%d rejectedRate=%d engine{%s}", st.RejectedPending, st.RejectedRate, st.Engine)
	if flood.Rejected == 0 || st.RejectedPending == 0 {
		t.Errorf("flood drove no admission rejections: flood=%+v stats=%+v", flood, st)
	}
	if flood.Accepted == 0 {
		t.Error("flood had zero accepted submissions; the test exercised only the cheap reject path")
	}
	if st.Engine.AnswerEvictions == 0 {
		t.Error("junk queries churned no answer-cache evictions; the bound is not engaged")
	}
	if st.Pending > 8 {
		t.Errorf("pending set %d exceeds MaxPending 8", st.Pending)
	}

	// Memory envelope: with every cache bounded, a flood's worth of junk
	// must not grow the heap beyond a fixed budget.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const envelope = 64 << 20
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > envelope {
		t.Errorf("heap grew %d bytes during flood, envelope %d", grew, envelope)
	}
}
