package engine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/control"
)

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
	al.StageDone(StageSchedule, wall/2, admitted, admitted)
	al.StageDone(StageBuild, wall-wall/2, admitted, admitted)
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
		{"from budget", AdaptiveConfig{Limits: Limits{BuildBudget: 12 * time.Millisecond}}, 6 * time.Millisecond},
		{"no budget", AdaptiveConfig{}, DefaultAdaptiveTarget},
		// A degenerate 1ns budget derives a 0ns target, which falls through
		// to the default rather than demanding the impossible.
		{"degenerate budget", AdaptiveConfig{Limits: Limits{BuildBudget: 1}}, DefaultAdaptiveTarget},
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
		Limits:        Limits{MaxPending: seedPending, BuildBudget: budget},
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
		Limits:        Limits{MaxPending: 1024},
		TargetLatency: 10 * time.Millisecond,
		Clock:         clk,
	})
	over := func() {
		al.StageDone(StageBuild, 12*time.Millisecond, 100, 100)
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
		Limits:        Limits{MaxPending: 1024},
		TargetLatency: 10 * time.Millisecond,
		Clock:         clk,
	})
	al.StageDone(StageBuild, 12*time.Millisecond, 100, 100)
	clk.Advance(time.Millisecond)
	al.CycleDone() // soft shed, hold window opens
	al.StageDone(StageBuild, 12*time.Millisecond, 100, 100)
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
		al.StageDone(StageBuild, 10*time.Millisecond, 100, 100)
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

func TestEngineAdaptiveSkipsHardPendingReject(t *testing.T) {
	c, queries := fixture(t, 10, 8)
	limits := Limits{MaxPending: 1}

	resolve := func(e *Engine) []Pending {
		var pending []Pending
		for i, q := range queries {
			docs, err := e.Resolve(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(docs) == 0 {
				continue
			}
			pending = append(pending, Pending{ID: int64(i), Query: q, Arrival: int64(i), Remaining: docs})
		}
		if len(pending) < 2 {
			t.Fatalf("fixture produced %d matching queries, need >= 2 to exceed MaxPending 1", len(pending))
		}
		return pending
	}

	// Without a controller the engine hard-rejects past the cap.
	plain, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 100_000, Limits: limits})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.AssembleCycle(1, 0, resolve(plain)); !errors.Is(err, ErrOverload) {
		t.Fatalf("static limits: AssembleCycle err = %v, want ErrOverload", err)
	}

	// With a controller wired, admission is the driver's job: the same
	// oversized-but-admitted set must still assemble.
	al := NewAdaptiveLimiter(AdaptiveConfig{Limits: limits})
	adaptive, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 100_000, Limits: limits, Adaptive: al})
	if err != nil {
		t.Fatal(err)
	}
	cy, err := adaptive.AssembleCycle(1, 0, resolve(adaptive))
	if err != nil {
		t.Fatalf("adaptive: AssembleCycle err = %v, want nil (no hard reject)", err)
	}
	if cy == nil || cy.NumPending < 2 {
		t.Fatalf("adaptive: unexpected cycle %+v", cy)
	}

	m := adaptive.Metrics()
	if m.Health == "" {
		t.Error("Metrics.Health empty with a controller wired")
	}
	if m.Adaptive == nil {
		t.Fatal("Metrics.Adaptive nil with a controller wired")
	}
	if m.Adaptive.MaxPending != al.MaxPending() {
		t.Errorf("Metrics.Adaptive.MaxPending = %d, limiter says %d", m.Adaptive.MaxPending, al.MaxPending())
	}
	if plain.Metrics().Health != "" || plain.Metrics().Adaptive != nil {
		t.Error("plain engine reports adaptive state")
	}
}
