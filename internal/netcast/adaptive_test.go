package netcast

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/control"
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
		MaxPending:  32,
		Limits: engine.Limits{
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
	ad := st.Adaptive
	if ad == nil {
		t.Fatal("ServerStats carries no adaptive state with Adaptive enabled")
	}
	if ad.Sheds == 0 {
		t.Error("sustained degraded cycles recorded no sheds")
	}
	if ad.MaxPending >= 32 {
		t.Errorf("MaxPending = %d, want shed below the 32 seed", ad.MaxPending)
	}
	if st.Health != Shedding && st.Health != Degraded {
		t.Errorf("health = %q, want shedding or degraded under flood", st.Health)
	}
	if st.Health != ad.Health {
		t.Errorf("ServerStats.Health %q != Adaptive.Health %q", st.Health, ad.Health)
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
		MaxPending:    16,
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
		if ad := st.Adaptive; ad != nil && ad.MaxPending > 16 && st.Health == Healthy && ad.Grows > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("limits never re-opened: health=%s adaptive=%+v", st.Health, st.Adaptive)
		}
		if err := cl.SubmitRetry(ctx, q); err != nil {
			t.Fatalf("SubmitRetry: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// driveCycle feeds the limiter one synthetic assembly cycle: offered requests
// arrive, the live MaxPending cap admits n of them, and each admitted request
// costs perReq of stage wall time (split across schedule and build, like the
// real pipeline). The injected clock advances by interCycle between cycles,
// so every run is deterministic.
func driveCycle(al *AdaptiveLimiter, clk *control.Fake, offered int, perReq, budget, interCycle time.Duration) (admitted int, degraded bool) {
	admitted = offered
	if cap := al.MaxPending(); cap > 0 && admitted > cap {
		admitted = cap
	}
	wall := time.Duration(admitted) * perReq
	al.StageDone(engine.StageSchedule, wall/2, admitted, admitted)
	al.StageDone(engine.StageBuild, wall-wall/2, admitted, admitted)
	degraded = budget > 0 && wall > budget
	if degraded {
		al.CycleDegraded()
	}
	clk.Advance(interCycle)
	al.CycleDone()
	return admitted, degraded
}

func TestAdaptiveTargetDerivation(t *testing.T) {
	cases := []struct {
		name string
		cfg  AdaptiveConfig
		want time.Duration
	}{
		{"explicit", AdaptiveConfig{TargetLatency: 5 * time.Millisecond}, 5 * time.Millisecond},
		{"from budget", AdaptiveConfig{BuildBudget: 12 * time.Millisecond}, 6 * time.Millisecond},
		{"no budget", AdaptiveConfig{}, DefaultAdaptiveTarget},
		// A degenerate 1ns budget derives a 0ns target, which falls through
		// to the default rather than demanding the impossible.
		{"degenerate budget", AdaptiveConfig{BuildBudget: 1}, DefaultAdaptiveTarget},
	}
	for _, tc := range cases {
		if got := NewAdaptiveLimiter(tc.cfg).State().Target; got != tc.want {
			t.Errorf("%s: target = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// A flood the admission cap cannot hope to serve: the controller must shed
// multiplicatively out of the degraded regime, then settle into a bounded
// sawtooth under the build budget (DegradedCycles plateau) instead of
// oscillating back into it.
func TestAdaptiveFloodRampConverges(t *testing.T) {
	const (
		seedPending = 1024
		seedRate    = 128.0
		offered     = 10_000
		perReq      = 50 * time.Microsecond
		budget      = 12 * time.Millisecond // degraded above 240 admitted
		target      = 10 * time.Millisecond // soft shed above 200 admitted
	)
	clk := control.NewFake(time.Unix(0, 0))
	al := NewAdaptiveLimiter(AdaptiveConfig{
		MaxPending:    seedPending,
		BuildBudget:   budget,
		UplinkRate:    seedRate,
		TargetLatency: target,
		Clock:         clk,
	})

	var degTotal, degLate int
	sawDegradedHealth := false
	maxAdmittedLate := 0
	for cycle := 0; cycle < 200; cycle++ {
		admitted, deg := driveCycle(al, clk, offered, perReq, budget, 20*time.Millisecond)
		if deg {
			degTotal++
			if cycle >= 10 {
				degLate++
			}
		}
		if al.Health() == Degraded {
			sawDegradedHealth = true
		}
		if cycle >= 10 && admitted > maxAdmittedLate {
			maxAdmittedLate = admitted
		}
	}
	st := al.State()

	// The ramp-down: 1024 -> 512 -> 256 admitted all blow the 240-request
	// budget boundary; 128 does not. Exactly those cycles degrade, and the
	// streak is long enough to surface Degraded health.
	if degTotal != 3 {
		t.Errorf("degraded cycles = %d, want 3 (the initial ramp only)", degTotal)
	}
	if degLate != 0 {
		t.Errorf("%d degraded cycles after convergence, want a plateau", degLate)
	}
	if !sawDegradedHealth {
		t.Error("health never reported Degraded during the ramp")
	}
	if st.Health == Degraded {
		t.Errorf("health still Degraded after convergence: %+v", st)
	}

	// Converged operating regime: the sawtooth grows towards the soft
	// target and sheds before the budget boundary, so the admitted depth
	// stays bounded strictly under it.
	if maxAdmittedLate >= 240 {
		t.Errorf("admitted depth reached %d, want < 240 (budget boundary)", maxAdmittedLate)
	}
	if st.MaxPending < 8 || st.MaxPending >= 240 {
		t.Errorf("MaxPending = %d, want within [8, 240)", st.MaxPending)
	}
	if st.UplinkRate >= seedRate {
		t.Errorf("UplinkRate = %v, want shed below seed %v", st.UplinkRate, seedRate)
	}
	if st.Sheds < 4 {
		t.Errorf("Sheds = %d, want >= 4 (ramp + sawtooth)", st.Sheds)
	}
	if st.Grows == 0 {
		t.Error("Grows = 0, want additive regrowth between sheds")
	}
	if st.AssemblyLatency <= 0 || st.CycleLatency <= 0 {
		t.Errorf("latency estimators not seeded: %+v", st)
	}

	// Load subsides: limits must re-open past the flood plateau and health
	// must return to Healthy.
	floodPending := st.MaxPending
	floodRate := st.UplinkRate
	for cycle := 0; cycle < 150; cycle++ {
		if _, deg := driveCycle(al, clk, 50, perReq, budget, 20*time.Millisecond); deg {
			t.Fatalf("cycle %d degraded under light load", cycle)
		}
	}
	st = al.State()
	if st.Health != Healthy {
		t.Errorf("health after recovery = %s, want %s", st.Health, Healthy)
	}
	if st.MaxPending <= floodPending {
		t.Errorf("MaxPending did not re-open: %d -> %d", floodPending, st.MaxPending)
	}
	if st.MaxPending <= seedPending {
		t.Errorf("MaxPending = %d, want regrown past the %d seed", st.MaxPending, seedPending)
	}
	if st.UplinkRate <= floodRate {
		t.Errorf("UplinkRate did not re-open: %v -> %v", floodRate, st.UplinkRate)
	}
}

// A soft (over-target but not degraded) signal sheds at most once per hold
// window, so the EWMA's memory of a burst cannot cascade limits to the floor.
func TestAdaptiveSoftShedHysteresis(t *testing.T) {
	clk := control.NewFake(time.Unix(0, 0))
	al := NewAdaptiveLimiter(AdaptiveConfig{
		MaxPending:    1024,
		TargetLatency: 10 * time.Millisecond,
		Clock:         clk,
	})
	over := func() {
		al.StageDone(engine.StageBuild, 12*time.Millisecond, 100, 100)
		clk.Advance(20 * time.Millisecond)
		al.CycleDone()
	}
	over()
	if got := al.State().Sheds; got != 1 {
		t.Fatalf("first over-target cycle: Sheds = %d, want 1", got)
	}
	for i := 0; i < 8; i++ {
		over()
	}
	if got := al.State().Sheds; got != 1 {
		t.Errorf("inside hold window: Sheds = %d, want still 1", got)
	}
	over()
	if got := al.State().Sheds; got != 2 {
		t.Errorf("after hold window drained: Sheds = %d, want 2", got)
	}
}

// A degraded cycle is a hard signal: it sheds even inside the hold window.
func TestAdaptiveDegradedShedsThroughHold(t *testing.T) {
	clk := control.NewFake(time.Unix(0, 0))
	al := NewAdaptiveLimiter(AdaptiveConfig{
		MaxPending:    1024,
		TargetLatency: 10 * time.Millisecond,
		Clock:         clk,
	})
	al.StageDone(engine.StageBuild, 12*time.Millisecond, 100, 100)
	clk.Advance(time.Millisecond)
	al.CycleDone() // soft shed, hold window opens
	al.StageDone(engine.StageBuild, 12*time.Millisecond, 100, 100)
	al.CycleDegraded()
	clk.Advance(time.Millisecond)
	al.CycleDone()
	if got := al.State().Sheds; got != 2 {
		t.Errorf("Sheds = %d, want 2 (degraded cycle ignores the hold window)", got)
	}
}

func TestAdaptiveUntunedAxesStayOff(t *testing.T) {
	clk := control.NewFake(time.Unix(0, 0))
	al := NewAdaptiveLimiter(AdaptiveConfig{TargetLatency: time.Millisecond, Clock: clk})
	for i := 0; i < 20; i++ {
		al.StageDone(engine.StageBuild, 10*time.Millisecond, 100, 100)
		al.CycleDegraded()
		clk.Advance(time.Millisecond)
		al.CycleDone()
	}
	st := al.State()
	if st.Sheds == 0 {
		t.Fatal("degraded cycles recorded no sheds")
	}
	if st.MaxPending != 0 || st.UplinkRate != 0 {
		t.Errorf("untuned axes moved: pending=%d rate=%v, want 0/0", st.MaxPending, st.UplinkRate)
	}
}

func TestAdaptiveStateString(t *testing.T) {
	st := AdaptiveState{
		Health:          Shedding,
		MaxPending:      128,
		UplinkRate:      16,
		AssemblyLatency: 9 * time.Millisecond,
		Sheds:           3,
		Grows:           11,
	}
	if got := string(st.Health); got != "shedding" {
		t.Errorf("health = %q, want shedding", got)
	}
	if got, want := st.String(), "adaptive{pend=128 rate=16 lat=9ms sheds=3 grows=11}"; got != want {
		t.Errorf("state = %q, want %q", got, want)
	}
}

func TestAdaptiveRetryAfter(t *testing.T) {
	clk := control.NewFake(time.Unix(0, 0))
	al := NewAdaptiveLimiter(AdaptiveConfig{Clock: clk})
	if got := al.RetryAfter(); got != 0 {
		t.Fatalf("unseeded RetryAfter = %v, want 0 (caller falls back to its static hint)", got)
	}
	for i := 0; i < 3; i++ {
		clk.Advance(20 * time.Millisecond)
		al.CycleDone()
	}
	if got := al.RetryAfter(); got != 20*time.Millisecond {
		t.Errorf("RetryAfter = %v, want the 20ms inter-cycle spacing", got)
	}

	// Sub-millisecond estimates clamp up so the hint survives the wire
	// format's millisecond truncation.
	clk2 := control.NewFake(time.Unix(0, 0))
	fast := NewAdaptiveLimiter(AdaptiveConfig{Clock: clk2})
	for i := 0; i < 3; i++ {
		clk2.Advance(100 * time.Microsecond)
		fast.CycleDone()
	}
	if got := fast.RetryAfter(); got != time.Millisecond {
		t.Errorf("sub-ms RetryAfter = %v, want clamped to 1ms", got)
	}
}
