package netcast

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/engine"
)

// Admission is decided here, on the uplink, and nowhere else: a per-connection
// token bucket sheds floods before any work, the ledger (engine.Ledger.Admit)
// refuses a request while the pending set is at the cap, and one
// AdaptiveLimiter holds the cap, the uplink rate and the retry-after hint both
// of those read. The server always builds that limiter from its static
// settings; only under ServerConfig.Adaptive does it see the engine's probe
// events and retune them.

// tokenBucket is a per-uplink-connection rate limiter. Each query costs one
// token; tokens refill at rate per second up to burst. Used by a single
// goroutine, so no locking.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int, now time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: now}
}

// take spends one token if available and returns 0; otherwise it returns how
// long until the next token accrues (the retry-after hint).
func (b *tokenBucket) take(now time.Time) time.Duration {
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
}

// Health is the adaptive admission controller's two-state load signal,
// surfaced through ServerStats.
type Health string

const (
	// Healthy: observed assembly latency has stayed under target long
	// enough that the controller is (or is back to) opening limits
	// additively.
	Healthy Health = "healthy"
	// Shedding: the controller recently cut limits multiplicatively and is
	// holding them down (hysteresis) until latency recovers.
	Shedding Health = "shedding"
)

// Adaptive controller defaults.
const (
	// DefaultAdaptiveTarget is the per-cycle assembly-latency goal when
	// TargetLatency is zero.
	DefaultAdaptiveTarget = 20 * time.Millisecond
	// DefaultAdaptivePending seeds the pending cap of a server that enables
	// the controller without a configured ServerConfig.MaxPending.
	DefaultAdaptivePending = 256
	// DefaultAdaptiveUplinkRate (queries/sec per connection) seeds the
	// uplink rate of a server that enables the controller without one.
	DefaultAdaptiveUplinkRate = 128
)

// The control loop's fixed parameters.
const (
	// adaptiveAlpha is the EWMA smoothing factor of both latency estimators.
	adaptiveAlpha = 0.3
	// decreaseFactor is the multiplicative shed factor.
	decreaseFactor = 0.5
	// holdCycles is the hysteresis window after a shed during which neither
	// further soft sheds nor growth happen.
	holdCycles = 8
	// recoverCycles is the consecutive-good-cycle streak required to report
	// Healthy again.
	recoverCycles = 12
)

// AdaptiveConfig parameterises NewAdaptiveLimiter: the seeds the loop starts
// from and the latency it steers towards. The loop's own parameters are
// constants; growth steps, floors and ceilings derive from the seeds (see
// NewAdaptiveLimiter).
type AdaptiveConfig struct {
	// MaxPending seeds the pending cap. Zero leaves pending-cap tuning off
	// (no cap).
	MaxPending int
	// UplinkRate seeds the per-connection uplink rate (queries/sec). Zero
	// leaves rate tuning off.
	UplinkRate float64
	// TargetLatency is the per-cycle assembly-latency goal. Zero selects
	// DefaultAdaptiveTarget.
	TargetLatency time.Duration
	// Clock drives the controller's inter-cycle latency estimate. Nil
	// selects the wall clock; tests inject control.Fake.
	Clock control.Clock
}

// AdaptiveState is a point-in-time snapshot of the controller, exported
// through ServerStats.Adaptive.
type AdaptiveState struct {
	// Health is the two-state load signal.
	Health Health
	// Target is the assembly-latency goal the loop steers towards.
	Target time.Duration
	// MaxPending and UplinkRate are the live limit values (0 = untuned).
	MaxPending int
	UplinkRate float64
	// AssemblyLatency is the EWMA of per-cycle stage wall time (schedule +
	// build + encode); CycleLatency the EWMA of observed spacing between
	// assembled cycles, which prices wire.FrameReject retry-after hints.
	AssemblyLatency, CycleLatency time.Duration
	// Sheds counts multiplicative-decrease decisions; Grows counts
	// additive increases that actually moved a limit.
	Sheds, Grows int64
}

// String renders the live limits and counters as one report section,
// adaptive{pend= rate= lat= sheds= grows=}; Health is left to the caller.
func (s AdaptiveState) String() string {
	return fmt.Sprintf("adaptive{pend=%d rate=%.3g lat=%s sheds=%d grows=%d}",
		s.MaxPending, s.UplinkRate, s.AssemblyLatency.Round(time.Microsecond), s.Sheds, s.Grows)
}

// AdaptiveLimiter closes the loop between the engine's probe telemetry and
// the server's admission limits: additive-increase/multiplicative-decrease
// (AIMD) with hysteresis over the pending cap and the uplink rate, steering
// the per-cycle assembly latency towards a target. It implements
// engine.Probe — acting on the stage walls and cycle ends, ignoring the rest. Fed no events, it holds its seeds:
// that is the server's static admission. All methods are safe for concurrent
// use.
//
// One cap, at admission: the limiter only computes limits, and the server
// reads them at admission time (the ledger's cap, the bucket's rate, the
// reject's hint). The engine assembles whatever was admitted, so work
// admitted before a shed still airs.
type AdaptiveLimiter struct {
	engine.NopProbe // the cache, prune-kind, schedule-kind and channel events carry no load signal

	mu    sync.Mutex
	clock control.Clock

	target       time.Duration
	stepPending  int
	stepRate     float64
	pendingFloor int
	pendingCeil  int
	rateFloor    float64
	rateCeil     float64

	// Live limit values.
	maxPending int
	uplinkRate float64
	health     Health

	// Per-cycle assembly wall accumulated between CycleDone events.
	cycleWall time.Duration

	// Estimators.
	assembly    control.EWMA // per-cycle assembly wall
	interCycle  control.EWMA // spacing between CycleDone events
	lastCycleAt time.Time

	holdLeft      int
	healthyStreak int
	sheds, grows  int64
}

// NewAdaptiveLimiter builds a controller from its seeds. A tuned axis grows
// by seed/64 (min 1) pending requests or seed/16 queries/sec per step, between
// a floor of min(8, seed) requests or seed/64 (min 1) queries/sec and a
// ceiling of max(4096, 16×seed) requests or 16×seed queries/sec.
func NewAdaptiveLimiter(cfg AdaptiveConfig) *AdaptiveLimiter {
	target := cfg.TargetLatency
	if target <= 0 {
		target = DefaultAdaptiveTarget
	}
	a := &AdaptiveLimiter{
		clock:      control.Or(cfg.Clock),
		target:     target,
		maxPending: cfg.MaxPending,
		uplinkRate: cfg.UplinkRate,
		health:     Healthy,
		assembly:   control.NewEWMA(adaptiveAlpha),
		interCycle: control.NewEWMA(adaptiveAlpha),
	}
	if a.maxPending > 0 {
		a.stepPending = max(1, a.maxPending/64)
		a.pendingFloor = min(8, a.maxPending)
		a.pendingCeil = max(4096, 16*a.maxPending)
	}
	if a.uplinkRate > 0 {
		a.stepRate = a.uplinkRate / 16
		a.rateFloor = max(1, a.uplinkRate/64)
		a.rateCeil = 16 * a.uplinkRate
	}
	return a
}

// MaxPending is the live pending-set cap the ledger enforces at admission (0
// = uncapped).
func (a *AdaptiveLimiter) MaxPending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.maxPending
}

// UplinkRate is the live per-connection uplink rate in queries/sec (0 =
// unlimited).
func (a *AdaptiveLimiter) UplinkRate() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.uplinkRate
}

// Health is the current two-state load signal.
func (a *AdaptiveLimiter) Health() Health {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.health
}

// RetryAfter prices a wire.FrameReject retry-after hint from the controller's
// inter-cycle latency estimate: how long until the next cycle retires
// pending work. Returns 0 before the estimate is seeded (callers fall back
// to their static hint).
func (a *AdaptiveLimiter) RetryAfter() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.interCycle.Seeded() {
		return 0
	}
	d := a.interCycle.Duration()
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// State snapshots the controller.
func (a *AdaptiveLimiter) State() AdaptiveState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdaptiveState{
		Health:          a.health,
		Target:          a.target,
		MaxPending:      a.maxPending,
		UplinkRate:      a.uplinkRate,
		AssemblyLatency: a.assembly.Duration(),
		CycleLatency:    a.interCycle.Duration(),
		Sheds:           a.sheds,
		Grows:           a.grows,
	}
}

// StageDone implements engine.Probe: accumulate this cycle's assembly wall.
// StageResolve is excluded — it runs on the cycle loop too, but it is
// admission work, priced per submission, not cycle assembly — and the delta
// stages are sub-spans of the two they sit inside.
func (a *AdaptiveLimiter) StageDone(stage string, wall time.Duration, _, _ int) {
	switch stage {
	case engine.StageSchedule, engine.StageBuild, engine.StageEncode:
		// Encode runs after the cycle's CycleDone, so its wall lands in the
		// next control step — a one-cycle smear the EWMA absorbs.
		a.mu.Lock()
		a.cycleWall += wall
		a.mu.Unlock()
	}
}

// CycleDone implements engine.Probe and runs one control step:
//
//   - assembly latency over target sheds multiplicatively, but at most once
//     per holdCycles window (hysteresis), so the EWMA's memory of a burst
//     cannot cascade limits to the floor;
//   - latency under target with the hold window drained grows additively;
//   - health turns Shedding on a shed and back to Healthy after
//     recoverCycles consecutive good cycles.
func (a *AdaptiveLimiter) CycleDone() {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clock.Now()
	if !a.lastCycleAt.IsZero() {
		a.interCycle.ObserveDuration(now.Sub(a.lastCycleAt))
	}
	a.lastCycleAt = now

	inst := a.cycleWall
	a.cycleWall = 0
	lat := a.assembly.ObserveDuration(inst)

	over := inst > a.target || lat > a.target
	switch {
	case over && a.holdLeft == 0:
		a.shed()
		a.holdLeft = holdCycles
		a.healthyStreak = 0
		a.health = Shedding
	case over:
		// Over target inside the hold window: let the last shed take
		// effect before cutting again.
		a.holdLeft--
		a.healthyStreak = 0
	default:
		if a.holdLeft > 0 {
			a.holdLeft--
		} else {
			a.grow()
		}
		a.healthyStreak++
		if a.health != Healthy && a.healthyStreak >= recoverCycles {
			a.health = Healthy
		}
	}
}

// shed applies one multiplicative decrease. Called with a.mu held.
func (a *AdaptiveLimiter) shed() {
	a.sheds++
	if a.maxPending > 0 {
		a.maxPending = max(a.pendingFloor, int(float64(a.maxPending)*decreaseFactor))
	}
	if a.uplinkRate > 0 {
		a.uplinkRate = max(a.rateFloor, a.uplinkRate*decreaseFactor)
	}
}

// grow applies one additive increase, counting it only when a limit
// actually moved. Called with a.mu held.
func (a *AdaptiveLimiter) grow() {
	moved := false
	if a.maxPending > 0 && a.maxPending < a.pendingCeil {
		a.maxPending = min(a.pendingCeil, a.maxPending+a.stepPending)
		moved = true
	}
	if a.uplinkRate > 0 && a.uplinkRate < a.rateCeil {
		a.uplinkRate = min(a.rateCeil, a.uplinkRate+a.stepRate)
		moved = true
	}
	if moved {
		a.grows++
	}
}
