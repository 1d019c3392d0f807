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

// TestAdaptiveFloodE2E is the controller's chaos acceptance test: with an
// impossible build budget every cycle degrades, so the controller must shed
// the seeded limits multiplicatively while a flood hammers admission — and a
// concurrent legitimate client, admitted before the flood, still retrieves
// byte-correct results. The heap stays inside a fixed envelope throughout.
func TestAdaptiveFloodE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("flood test takes ~2s")
	}
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
		// Each flood connection's opening burst alone overruns the pending
		// cap: with the default burst of 8 the four connections admit at most
		// 16 valid queries before the controller sheds the rate to its floor,
		// and whether the (shrinking) cap was ever reached was a race.
		UplinkBurst: 64,
		Limits: engine.Limits{
			MaxPending:            32,
			MaxAnswerCacheEntries: 16,
			MaxPayloadCacheBytes:  64 << 10,
			BuildBudget:           time.Nanosecond, // every cycle degrades
		},
		Adaptive: true,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()

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
				return cl.Submit(xpath.MustParse(fmt.Sprintf("/nitf/zzz%d_%d/x", worker, seq)))
			},
			func(err error) bool { return errors.Is(err, engine.ErrOverload) })
	}()

	// The legit retrieval proceeds mid-flood over degraded (unpruned) cycles.
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
	t.Logf("server: health=%s rejectedPending=%d rejectedRate=%d engine{%s}",
		st.Health, st.RejectedPending, st.RejectedRate, st.Engine)

	if flood.Rejected == 0 || st.RejectedPending == 0 {
		t.Errorf("flood drove no admission rejections: flood=%+v stats=%+v", flood, st)
	}
	if st.Engine.DegradedCycles == 0 {
		t.Error("impossible build budget produced no degraded cycles")
	}
	// The controller converged: limits shed below the seeds, health left
	// Healthy, and the pending set stayed bounded by the (shrinking) cap.
	ad := st.Engine.Adaptive
	if ad == nil {
		t.Fatal("ServerStats carries no adaptive state with Adaptive enabled")
	}
	if ad.Sheds == 0 {
		t.Error("sustained degraded cycles recorded no sheds")
	}
	if ad.MaxPending >= 32 {
		t.Errorf("MaxPending = %d, want shed below the 32 seed", ad.MaxPending)
	}
	if st.Health != engine.Shedding && st.Health != engine.Degraded {
		t.Errorf("health = %q, want shedding or degraded under flood", st.Health)
	}
	if st.Health != st.Engine.Health {
		t.Errorf("ServerStats.Health %q != Engine.Health %q", st.Health, st.Engine.Health)
	}
	if st.Pending > 32 {
		t.Errorf("pending set %d exceeds the 32-request seed cap", st.Pending)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const envelope = 64 << 20
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > envelope {
		t.Errorf("heap grew %d bytes during flood, envelope %d", grew, envelope)
	}
}

// TestAdaptiveRecoveryE2E pins the other half of the loop: under light,
// well-behaved load the controller re-opens limits additively past the seed
// and reports Healthy.
func TestAdaptiveRecoveryE2E(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: coll.TotalSize(), // one cycle retires any request
		CycleInterval: 5 * time.Millisecond,
		Limits:        engine.Limits{MaxPending: 16},
		Adaptive:      true,
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

	// A trickle of submissions keeps cycles turning (the loop only assembles
	// while requests are pending); every cycle lands far under target, so
	// the controller grows the cap each control step.
	q := xpath.MustParse("/nitf/head/title")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := srv.Stats()
		if ad := st.Engine.Adaptive; ad != nil && ad.MaxPending > 16 && st.Health == engine.Healthy && ad.Grows > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("limits never re-opened: health=%s adaptive=%+v", st.Health, st.Engine.Adaptive)
		}
		if err := cl.SubmitRetry(ctx, q); err != nil {
			t.Fatalf("SubmitRetry: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
