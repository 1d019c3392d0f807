package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/engine"
)

// Tracing lives entirely in the benchmark: an engine.Probe handed to the
// server (or the simulator) records every pipeline event with its time, the
// foreground loop records its own Submit/Retrieve calls, and a recording
// subscriber stamps every frame it reads. Spans and counts are kept in
// memory and summarised (and, with -out, written) when the run ends.

type eventKind uint8

const (
	evStage eventKind = iota
	evCache
	evPrune
	evSchedule
	evDegraded
	evCycleDone
)

type probeEvent struct {
	at      time.Time // when the event was reported (a stage's end)
	kind    eventKind
	name    string // stage name, or prune/schedule kind
	wall    time.Duration
	in, out int
	hit     bool
}

// traceProbe is the benchmark-owned engine.Probe: an append-only event log.
type traceProbe struct {
	mu     sync.Mutex
	events []probeEvent
}

var _ engine.Probe = (*traceProbe)(nil)

func (p *traceProbe) add(e probeEvent) {
	e.at = time.Now()
	p.mu.Lock()
	p.events = append(p.events, e)
	p.mu.Unlock()
}

func (p *traceProbe) StageDone(stage string, wall time.Duration, in, out int) {
	p.add(probeEvent{kind: evStage, name: stage, wall: wall, in: in, out: out})
}
func (p *traceProbe) CacheAccess(hit bool)     { p.add(probeEvent{kind: evCache, hit: hit}) }
func (p *traceProbe) CacheInvalidated()        {}
func (p *traceProbe) CacheEvicted(string, int) {}
func (p *traceProbe) PruneDone(kind string)    { p.add(probeEvent{kind: evPrune, name: kind}) }
func (p *traceProbe) ScheduleDone(kind string) { p.add(probeEvent{kind: evSchedule, name: kind}) }
func (p *traceProbe) CycleDegraded()           { p.add(probeEvent{kind: evDegraded}) }
func (p *traceProbe) CycleDone()               { p.add(probeEvent{kind: evCycleDone}) }
func (p *traceProbe) ChannelDone(int, broadcast.ChannelRole, int64, bool) {
}

// span is one traced interval. Spans of one cycle or one request share
// Trace; Parent names the span that caused this one. Times are microseconds
// since the traced window opened.
type span struct {
	Name    string           `json:"name"`
	Trace   string           `json:"trace"`
	Parent  string           `json:"parent,omitempty"`
	StartUS int64            `json:"start_us"`
	EndUS   int64            `json:"end_us"`
	SelfUS  int64            `json:"self_us,omitempty"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// cycleTrace is one cycle rebuilt from the probe's event order: the engine
// reports [schedule-delta] schedule [prune-delta] build, then CycleDone,
// then encode, all from the server's cycle goroutine.
type cycleTrace struct {
	number     int64
	start      time.Time // first stage's start
	encodeEnd  time.Time
	delivered  time.Time // last frame of the cycle read by the recording subscriber
	stages     []probeEvent
	engineWall time.Duration // schedule + build + encode (the deltas nest inside them)
}

// cycles rebuilds per-cycle traces from the event log. Resolve events come
// from uplink goroutines, concurrent with the cycle loop, so they are not
// part of any cycle's critical path and are returned separately.
func (p *traceProbe) cycles() (cycles []cycleTrace, resolves []probeEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var cur *cycleTrace
	var n int64
	for _, e := range p.events {
		switch {
		case e.kind == evStage && e.name == engine.StageResolve:
			resolves = append(resolves, e)
		case e.kind == evStage:
			if cur == nil {
				cur = &cycleTrace{number: n, start: e.at.Add(-e.wall)}
			}
			cur.stages = append(cur.stages, e)
			switch e.name {
			case engine.StageSchedule, engine.StageBuild:
				cur.engineWall += e.wall
			case engine.StageEncode:
				cur.engineWall += e.wall
				cur.encodeEnd = e.at
				cycles = append(cycles, *cur)
				cur = nil
			}
		case e.kind == evCycleDone:
			n++
		}
	}
	return cycles, resolves
}

// stampWriter is the io.Writer handed to netcast.Record: it notes when every
// frame piece arrives and keeps the first limit bytes as the capture the
// client-side replay legs read.
type stampWriter struct {
	buf    bytes.Buffer
	limit  int
	full   bool
	stamps []time.Time
}

func (w *stampWriter) Write(p []byte) (int, error) {
	w.stamps = append(w.stamps, time.Now())
	if !w.full && w.buf.Len()+len(p) <= w.limit {
		w.buf.Write(p)
	} else {
		w.full = true
	}
	return len(p), nil
}

// markDelivered sets each cycle's delivery time: the last frame the
// recording subscriber read after the cycle was encoded and before the next
// cycle began. A cycle whose frames were still in flight when the next one
// started keeps a zero time and is left out of the self-time mean.
func markDelivered(cycles []cycleTrace, stamps []time.Time) {
	for i := range cycles {
		if i+1 >= len(cycles) {
			break
		}
		next := cycles[i+1].start
		j := sort.Search(len(stamps), func(k int) bool { return !stamps[k].Before(next) })
		if j > 0 && stamps[j-1].After(cycles[i].encodeEnd) {
			cycles[i].delivered = stamps[j-1]
		}
	}
}

// engineMetrics summarises the probe's events inside [from, to) per cycle
// assembled in that interval.
func (p *traceProbe) engineMetrics(m metricSet, from, to time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	type agg struct {
		wall    time.Duration
		n       int
		in, out int64
	}
	stage := map[string]*agg{}
	var hits, misses, cycles, degraded int
	prune, sched := map[string]int{}, map[string]int{}
	for _, e := range p.events {
		if e.at.Before(from) || !e.at.Before(to) {
			continue
		}
		switch e.kind {
		case evStage:
			a := stage[e.name]
			if a == nil {
				a = &agg{}
				stage[e.name] = a
			}
			a.wall += e.wall
			a.n++
			a.in += int64(e.in)
			a.out += int64(e.out)
		case evCache:
			if e.hit {
				hits++
			} else {
				misses++
			}
		case evPrune:
			prune[e.name]++
		case evSchedule:
			sched[e.name]++
		case evDegraded:
			degraded++
		case evCycleDone:
			cycles++
		}
	}
	get := func(name string) agg {
		if a := stage[name]; a != nil {
			return *a
		}
		return agg{}
	}
	c := float64(cycles)
	perCycle := func(metric, name string) {
		m.set(metric, ratio(ms(get(name).wall), c), cycles)
	}
	perCycle("engine.resolve.ms_per_cycle", engine.StageResolve)
	perCycle("engine.schedule.ms_per_cycle", engine.StageSchedule)
	perCycle("engine.schedule_delta.ms_per_cycle", engine.StageScheduleDelta)
	perCycle("engine.build.ms_per_cycle", engine.StageBuild)
	perCycle("engine.prune_delta.ms_per_cycle", engine.StagePruneDelta)
	perCycle("engine.encode.ms_per_cycle", engine.StageEncode)
	m.set("engine.resolve.misses_per_s", ratio(float64(get(engine.StageResolve).in), to.Sub(from).Seconds()), get(engine.StageResolve).n)
	m.set("engine.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), hits+misses)
	nSched := sched[engine.ScheduleFull] + sched[engine.ScheduleIncremental]
	m.set("engine.schedule.full_ratio", ratio(float64(sched[engine.ScheduleFull]), float64(nSched)), nSched)
	m.set("engine.schedule.pending_mean", ratio(float64(get(engine.StageSchedule).in), float64(get(engine.StageSchedule).n)), get(engine.StageSchedule).n)
	nPrune := prune[engine.PruneFull] + prune[engine.PruneIncremental] + prune[engine.PruneFallback]
	m.set("engine.prune.fallback_ratio", ratio(float64(prune[engine.PruneFallback]), float64(nPrune)), nPrune)
	m.set("engine.encode.kb_per_cycle", ratio(float64(get(engine.StageEncode).out)/1024, c), cycles)
	m.set("engine.degraded_cycles", float64(degraded), cycles)
}

// requestTrace is one foreground retrieval as the benchmark saw it.
type requestTrace struct {
	client, seq          int
	query                string
	start, acked, end    time.Time
	docs, cycles         int
	tuning, doze         int64
	resyncs, reconnects  int
	err                  error
	wrong                bool
	cancelledByBenchmark bool
}

// buildSpans turns the traced window's cycles and requests into the flat
// span list written to the span file.
func buildSpans(origin, end time.Time, cycles []cycleTrace, resolves []probeEvent, reqs []requestTrace) []span {
	rel := func(t time.Time) int64 { return t.Sub(origin).Microseconds() }
	in := func(t time.Time) bool { return !t.Before(origin) && t.Before(end) }
	var out []span
	ri := 0
	for i, c := range cycles {
		if !in(c.start) {
			continue
		}
		id := fmt.Sprintf("cycle-%d", c.number)
		cycleEnd := c.encodeEnd
		if !c.delivered.IsZero() {
			cycleEnd = c.delivered
		}
		root := span{Name: "cycle", Trace: id, StartUS: rel(c.start), EndUS: rel(cycleEnd),
			SelfUS: (cycleEnd.Sub(c.start) - c.engineWall).Microseconds()}
		var children []span
		for _, e := range c.stages {
			s := span{Name: "engine." + e.name, Trace: id, Parent: "cycle",
				StartUS: rel(e.at.Add(-e.wall)), EndUS: rel(e.at),
				Counts: map[string]int64{"in": int64(e.in), "out": int64(e.out)}}
			// The delta stages are reported before, and nest inside, the
			// stage that follows them.
			switch e.name {
			case engine.StageScheduleDelta:
				s.Parent = "engine." + engine.StageSchedule
			case engine.StagePruneDelta:
				s.Parent = "engine." + engine.StageBuild
			}
			children = append(children, s)
		}
		// Resolves that finished while this cycle was the current one.
		var until time.Time
		if i+1 < len(cycles) {
			until = cycles[i+1].start
		}
		for ; ri < len(resolves) && (until.IsZero() || resolves[ri].at.Before(until)); ri++ {
			e := resolves[ri]
			if e.at.Before(c.start) {
				continue
			}
			children = append(children, span{Name: "engine." + e.name, Trace: id, Parent: "cycle",
				StartUS: rel(e.at.Add(-e.wall)), EndUS: rel(e.at),
				Counts: map[string]int64{"misses": int64(e.in), "matched": int64(e.out), "concurrent": 1}})
		}
		out = append(out, root)
		out = append(out, children...)
	}
	for _, r := range reqs {
		if !in(r.start) || r.cancelledByBenchmark {
			continue
		}
		id := fmt.Sprintf("request-%d-%d", r.client, r.seq)
		failed := int64(0)
		if r.err != nil || r.wrong {
			failed = 1
		}
		out = append(out,
			span{Name: "request", Trace: id, StartUS: rel(r.start), EndUS: rel(r.end),
				Counts: map[string]int64{"docs": int64(r.docs), "failed": failed}},
			span{Name: "client.submit", Trace: id, Parent: "request", StartUS: rel(r.start), EndUS: rel(r.acked)},
			span{Name: "client.retrieve", Trace: id, Parent: "request", StartUS: rel(r.acked), EndUS: rel(r.end),
				Counts: map[string]int64{"cycles": int64(r.cycles), "tuning_bytes": r.tuning, "doze_bytes": r.doze,
					"resyncs": int64(r.resyncs), "reconnects": int64(r.reconnects)}})
	}
	return out
}

// spanFile is what -out writes per workload.
type spanFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	WindowS  float64 `json:"window_s"`
	Spans    []span  `json:"spans"`
}

func writeSpans(dir string, f spanFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans_%s_seed%d.json", f.Workload, f.Seed))
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
