package engine

import (
	"strings"
	"testing"
	"time"

	"repro/internal/broadcast"
)

func TestCacheHitRate(t *testing.T) {
	cases := []struct {
		hits, misses int64
		want         float64
	}{
		{0, 0, 0}, // never consulted: no division by zero
		{3, 1, 0.75},
		{0, 5, 0},
		{5, 0, 1},
	}
	for _, tc := range cases {
		m := Metrics{CacheHits: tc.hits, CacheMisses: tc.misses}
		if got := m.CacheHitRate(); got != tc.want {
			t.Errorf("hits=%d misses=%d: CacheHitRate = %v, want %v", tc.hits, tc.misses, got, tc.want)
		}
	}
}

func TestMetricsStringEmpty(t *testing.T) {
	// The zero Metrics (nil Stages map) must render without panicking and
	// keep the optional sections out of the line.
	s := Metrics{}.String()
	if !strings.Contains(s, "cycles=0") {
		t.Errorf("zero snapshot = %q, want cycles=0", s)
	}
	for _, forbidden := range []string{"evicted=", "prunes=", "scheds=", "channels="} {
		if strings.Contains(s, forbidden) {
			t.Errorf("zero snapshot includes %q: %q", forbidden, s)
		}
	}
}

func TestMetricsStringPartial(t *testing.T) {
	m := Metrics{
		Cycles:         7,
		CacheHits:      3,
		CacheMisses:    1,
		FullPrunes:     4,
		PruneFallbacks: 1,
		Stages: map[string]StageStats{
			StageBuild:    {Count: 7, Wall: 3 * time.Millisecond, In: 700, Out: 70},
			StageSchedule: {Count: 7, Wall: time.Millisecond, In: 70, Out: 7},
		},
	}
	s := m.String()
	for _, want := range []string{
		"cycles=7",
		"cache=3/4 (75% hit)",
		"prunes=0 incr/4 full (1 fallback)",
		"build{n=7 wall=3ms in=700 out=70}",
		"schedule{n=7 wall=1ms in=70 out=7}",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot %q missing %q", s, want)
		}
	}
	// Stage sections render sorted by name, so the line is deterministic.
	if strings.Index(s, "build{") > strings.Index(s, "schedule{") {
		t.Errorf("stages not sorted: %q", s)
	}
	for _, forbidden := range []string{"evicted=", "scheds=", "channels="} {
		if strings.Contains(s, forbidden) {
			t.Errorf("snapshot includes unset section %q: %q", forbidden, s)
		}
	}

	// Per-channel figures are the mean and the max over every cycle, not
	// the last one: a run's final (drain) cycle is typically tiny and must
	// not stand for the channel.
	c := NewCollector()
	for _, bytes := range []int{99_000, 99_000, 2} {
		c.channelAired(&broadcast.ChannelLayout{ID: 0, Role: broadcast.IndexChannelRole, Bytes: 1_000})
		c.channelAired(&broadcast.ChannelLayout{ID: 1, Role: broadcast.DataChannelRole, Bytes: bytes})
	}
	s = c.Metrics().String()
	if want := "channels=[0:index 1000B/cycle (max 1000B) 1:data 66000B/cycle (max 99000B)]"; !strings.Contains(s, want) {
		t.Errorf("snapshot %q missing %q", s, want)
	}
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector()

	// Empty collector: usable zero snapshot with a non-nil stage map.
	m := c.Metrics()
	if m.Stages == nil || len(m.Stages) != 0 {
		t.Fatalf("empty collector Stages = %v, want empty map", m.Stages)
	}

	c.StageDone(StageBuild, 2*time.Millisecond, 100, 10)
	c.StageDone(StageBuild, 3*time.Millisecond, 50, 5)
	c.StageDone(StageEncode, time.Millisecond, 3, 4096)
	c.CacheAccess(true)
	c.CacheAccess(false)
	c.CacheInvalidated()
	c.PruneDone(PruneIncremental)
	c.PruneDone(PruneFull)
	c.PruneDone(PruneFallback)
	c.ScheduleDone(ScheduleIncremental)
	c.ScheduleDone(ScheduleFull)
	c.CycleDone()
	c.CycleDone()

	m = c.Metrics()
	build := m.Stages[StageBuild]
	if build.Count != 2 || build.Wall != 5*time.Millisecond || build.In != 150 || build.Out != 15 {
		t.Errorf("build stage = %+v, want n=2 wall=5ms in=150 out=15", build)
	}
	if enc := m.Stages[StageEncode]; enc.Count != 1 || enc.Out != 4096 {
		t.Errorf("encode stage = %+v", enc)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.CacheInvalidations != 1 {
		t.Errorf("cache counters = %d/%d/%d", m.CacheHits, m.CacheMisses, m.CacheInvalidations)
	}
	// PruneFallback counts as a full prune plus the fallback sub-counter.
	if m.IncrementalPrunes != 1 || m.FullPrunes != 2 || m.PruneFallbacks != 1 {
		t.Errorf("prunes = %d incr/%d full/%d fallback, want 1/2/1",
			m.IncrementalPrunes, m.FullPrunes, m.PruneFallbacks)
	}
	if m.IncrementalSchedules != 1 || m.FullSchedules != 1 {
		t.Errorf("schedules = %d/%d, want 1/1", m.IncrementalSchedules, m.FullSchedules)
	}
	if m.Cycles != 2 {
		t.Errorf("cycles = %d, want 2", m.Cycles)
	}
}

func TestCollectorSnapshotIsDeepCopy(t *testing.T) {
	c := NewCollector()
	c.StageDone(StageBuild, time.Millisecond, 1, 1)
	snap := c.Metrics()
	snap.Stages[StageBuild] = StageStats{Count: 999}
	snap.Stages["bogus"] = StageStats{}
	if got := c.Metrics().Stages[StageBuild].Count; got != 1 {
		t.Errorf("mutating a snapshot reached the collector: Count = %d", got)
	}
	if _, ok := c.Metrics().Stages["bogus"]; ok {
		t.Error("snapshot map aliases the collector's map")
	}
}
