package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/broadcast"
)

// Pipeline stage names reported through Probe. Each Ledger.Air runs
// schedule, build and encode, and its commit schedule-delta; Resolve runs
// resolve on a cache miss.
const (
	// StageResolve is answering one query the answer cache does not hold:
	// one navigator lookup over the unpruned CI. Input is 1, the query,
	// output the number of documents it matched.
	StageResolve = "resolve"
	// StageSchedule is cycle planning. Input is the number of pending
	// requests, output the number of planned documents.
	StageSchedule = "schedule"
	// StageBuild is PCI pruning, packing and cycle layout. Input is the CI
	// node count, output the pruned index node count.
	StageBuild = "build"
	// StagePruneDelta is the incremental-prune sub-span of the build stage:
	// the time the PrunedView spent applying a query-set delta instead of
	// re-pruning from scratch. Input is the delta size (queries added plus
	// removed), output the number of CI nodes whose matched status flipped.
	// Full prunes do not report this stage; their time lands in StageBuild
	// only.
	StagePruneDelta = "prune-delta"
	// StageScheduleDelta is a commit's upkeep of the ledger's demand index:
	// delivering the planned documents and entering the classes the commit
	// staged, which gives back what a class did not receive and removes the
	// drained classes. Input is the classes entered or removed, output the
	// requester-list edits applied since the last commit, the admissions'
	// included.
	StageScheduleDelta = "schedule-delta"
	// StageEncode is framing the cycle as it airs: encoding and framing the
	// head, index, directory and second-tier segments, framing the
	// documents the payload cache misses, and on a compressing engine the
	// DEFLATE of every frame it builds. Input is the number of frames the
	// cycle airs, output their bytes on air.
	StageEncode = "encode"
)

// Schedule kinds reported through Probe.ScheduleDone.
const (
	// ScheduleIncremental is a cycle planned from the delta-maintained
	// demand index: every cycle.
	ScheduleIncremental = "incremental"
	// ScheduleFull is a cycle planned after a from-scratch demand
	// aggregation. The engine no longer plans one; the kind stays for
	// observers that count both.
	ScheduleFull = "full"
)

// Prune kinds reported through Probe.PruneDone.
const (
	// PruneIncremental is a cycle whose PCI came from the incremental
	// maintainer (a delta update, including the degenerate no-change reuse).
	PruneIncremental = "incremental"
	// PruneFull is a from-scratch prune with no usable prior state: the
	// view's first cycle.
	PruneFull = "full"
	// PruneFallback is a from-scratch prune forced on a live view — the
	// query-set churn exceeded the threshold or the CI itself changed.
	PruneFallback = "fallback"
)

// Probe receives engine telemetry. The engine reports on the one goroutine
// that drives it; an implementation whose state other goroutines read
// synchronises that itself. The zero-cost default is NopProbe.
type Probe interface {
	// StageDone reports one completed pipeline stage with its wall time and
	// the stage's input/output sizes (see the Stage* constants for units).
	StageDone(stage string, wall time.Duration, in, out int)
	// CacheAccess reports one answer-cache lookup.
	CacheAccess(hit bool)
	// CacheInvalidated reports one collection update. The update patches
	// the cached answers it changes and drops a removed document's payload;
	// it evicts no answer.
	CacheInvalidated()
	// PruneDone reports how one cycle's PCI was produced: kind is
	// PruneIncremental, PruneFull or PruneFallback.
	PruneDone(kind string)
	// ScheduleDone reports how one cycle's plan was produced: kind is
	// ScheduleIncremental or ScheduleFull.
	ScheduleDone(kind string)
	// CycleDone reports one fully assembled broadcast cycle.
	CycleDone()
}

// NopProbe is the default Probe; every method is a no-op.
type NopProbe struct{}

// StageDone implements Probe.
func (NopProbe) StageDone(string, time.Duration, int, int) {}

// CacheAccess implements Probe.
func (NopProbe) CacheAccess(bool) {}

// CacheInvalidated implements Probe.
func (NopProbe) CacheInvalidated() {}

// PruneDone implements Probe.
func (NopProbe) PruneDone(string) {}

// ScheduleDone implements Probe.
func (NopProbe) ScheduleDone(string) {}

// CycleDone implements Probe.
func (NopProbe) CycleDone() {}

// StageStats accumulates one stage's counters.
type StageStats struct {
	// Count is the number of completed stage executions.
	Count int64
	// Wall is the total wall time spent in the stage.
	Wall time.Duration
	// In and Out accumulate the stage's input and output sizes.
	In, Out int64
}

// Metrics is a point-in-time snapshot of engine telemetry, exported through
// netcast.ServerStats and sim.Result.
type Metrics struct {
	// Stages holds per-stage counters keyed by the Stage* constants.
	Stages map[string]StageStats
	// CacheHits and CacheMisses count answer-cache lookups.
	CacheHits, CacheMisses int64
	// CacheInvalidations counts collection updates, each of which brought
	// the cached answers up to date in place.
	CacheInvalidations int64
	// AnswerEvictions and PayloadEvictions count entries dropped from the
	// answer and payload caches by their LRU bounds; the engine adds them
	// itself, no Probe event carries them.
	AnswerEvictions, PayloadEvictions int64
	// Cycles counts assembled broadcast cycles.
	Cycles int64
	// IncrementalPrunes counts cycles whose PCI came from the incremental
	// maintainer's delta path; FullPrunes counts from-scratch prunes.
	// PruneFallbacks is the subset of FullPrunes forced on a live view by
	// query-set churn or a CI change.
	IncrementalPrunes, FullPrunes, PruneFallbacks int64
	// IncrementalSchedules counts cycles planned from the delta-maintained
	// demand index; FullSchedules counts ScheduleFull reports, which the
	// engine no longer makes.
	IncrementalSchedules, FullSchedules int64
	// Channels holds per-channel aggregates, indexed by channel ID; empty
	// on single-channel runs. The engine adds them itself, no Probe event
	// carries them.
	Channels []ChannelMetrics
}

// ChannelMetrics accumulates one broadcast channel's share of the
// multichannel cycles assembled so far.
type ChannelMetrics struct {
	// Role names the channel's function: "index" or "data".
	Role string `json:"role"`
	// Cycles counts the cycles this channel took part in.
	Cycles int64 `json:"cycles"`
	// Bytes is the channel's cumulative payload.
	Bytes int64 `json:"bytes"`
	// MaxCycleBytes is the channel's largest per-cycle payload (its cycle
	// length at channel pace); Bytes/Cycles is the mean.
	MaxCycleBytes int64 `json:"max_cycle_bytes"`
}

// CacheHitRate is the fraction of answer-cache lookups that hit, or 0 when
// the cache was never consulted.
func (m Metrics) CacheHitRate() float64 {
	total := m.CacheHits + m.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(m.CacheHits) / float64(total)
}

// String renders the metrics as one compact line, for CLI reporting.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d cache=%d/%d (%.0f%% hit)",
		m.Cycles, m.CacheHits, m.CacheHits+m.CacheMisses, 100*m.CacheHitRate())
	if m.AnswerEvictions > 0 || m.PayloadEvictions > 0 {
		fmt.Fprintf(&b, " evicted=%d/%d", m.AnswerEvictions, m.PayloadEvictions)
	}
	if m.IncrementalPrunes > 0 || m.FullPrunes > 0 {
		fmt.Fprintf(&b, " prunes=%d incr/%d full", m.IncrementalPrunes, m.FullPrunes)
		if m.PruneFallbacks > 0 {
			fmt.Fprintf(&b, " (%d fallback)", m.PruneFallbacks)
		}
	}
	if m.IncrementalSchedules > 0 || m.FullSchedules > 0 {
		fmt.Fprintf(&b, " scheds=%d incr/%d full", m.IncrementalSchedules, m.FullSchedules)
	}
	if len(m.Channels) > 0 {
		b.WriteString(" channels=[")
		for i, ch := range m.Channels {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%s %dB/cycle (max %dB)", i, ch.Role, ch.Bytes/max(ch.Cycles, 1), ch.MaxCycleBytes)
		}
		b.WriteByte(']')
	}
	names := make([]string, 0, len(m.Stages))
	for name := range m.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := m.Stages[name]
		fmt.Fprintf(&b, " %s{n=%d wall=%s in=%d out=%d}", name, s.Count, s.Wall.Round(time.Microsecond), s.In, s.Out)
	}
	return b.String()
}

// Collector is a Probe that accumulates Metrics. It is not safe for
// concurrent use: it runs on the goroutine that drives its engine, and
// Metrics is read there too.
type Collector struct {
	m Metrics
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{m: Metrics{Stages: make(map[string]StageStats)}}
}

// StageDone implements Probe.
func (c *Collector) StageDone(stage string, wall time.Duration, in, out int) {
	s := c.m.Stages[stage]
	s.Count++
	s.Wall += wall
	s.In += int64(in)
	s.Out += int64(out)
	c.m.Stages[stage] = s
}

// CacheAccess implements Probe.
func (c *Collector) CacheAccess(hit bool) {
	if hit {
		c.m.CacheHits++
	} else {
		c.m.CacheMisses++
	}
}

// CacheInvalidated implements Probe.
func (c *Collector) CacheInvalidated() {
	c.m.CacheInvalidations++
}

// PruneDone implements Probe.
func (c *Collector) PruneDone(kind string) {
	switch kind {
	case PruneIncremental:
		c.m.IncrementalPrunes++
	case PruneFull:
		c.m.FullPrunes++
	case PruneFallback:
		c.m.FullPrunes++
		c.m.PruneFallbacks++
	}
}

// ScheduleDone implements Probe.
func (c *Collector) ScheduleDone(kind string) {
	switch kind {
	case ScheduleIncremental:
		c.m.IncrementalSchedules++
	case ScheduleFull:
		c.m.FullSchedules++
	}
}

// channelAired adds one channel's share of an assembled multichannel cycle.
func (c *Collector) channelAired(lay *broadcast.ChannelLayout) {
	for len(c.m.Channels) <= lay.ID {
		c.m.Channels = append(c.m.Channels, ChannelMetrics{})
	}
	ch := &c.m.Channels[lay.ID]
	ch.Role = lay.Role.String()
	ch.Cycles++
	ch.Bytes += int64(lay.Bytes)
	ch.MaxCycleBytes = max(ch.MaxCycleBytes, int64(lay.Bytes))
}

// CycleDone implements Probe.
func (c *Collector) CycleDone() {
	c.m.Cycles++
}

// Metrics returns a deep-copied snapshot.
func (c *Collector) Metrics() Metrics {
	out := c.m
	out.Stages = make(map[string]StageStats, len(c.m.Stages))
	for k, v := range c.m.Stages {
		out.Stages[k] = v
	}
	out.Channels = append([]ChannelMetrics(nil), c.m.Channels...)
	return out
}

// probes fans telemetry out to the internal collector plus the configured
// probe (Config.Probe).
type probes []Probe

func (p probes) StageDone(stage string, wall time.Duration, in, out int) {
	for _, pr := range p {
		pr.StageDone(stage, wall, in, out)
	}
}

func (p probes) CacheAccess(hit bool) {
	for _, pr := range p {
		pr.CacheAccess(hit)
	}
}

func (p probes) CacheInvalidated() {
	for _, pr := range p {
		pr.CacheInvalidated()
	}
}

func (p probes) PruneDone(kind string) {
	for _, pr := range p {
		pr.PruneDone(kind)
	}
}

func (p probes) ScheduleDone(kind string) {
	for _, pr := range p {
		pr.ScheduleDone(kind)
	}
}

func (p probes) CycleDone() {
	for _, pr := range p {
		pr.CycleDone()
	}
}
