package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric of the benchmark. The two tables below are the
// single source for BENCHMARK.json's end_to_end and per_layer lists (a test
// checks they agree) and for the order the report prints in.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees. Every workload reports all of
// them with tracing off; README.md says how paper_sim defines the wall-clock
// ones on the byte clock.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"cycles_per_s", "1/s", "higher"},
	{"cpu_ms_per_cycle", "ms", "lower"},
	{"alloc_kb_per_cycle", "KB", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"access_bytes_mean", "B", "lower"},
	{"tuning_bytes_mean", "B", "lower"},
}

// bounds is, per end-to-end metric, the share of the parent's median by
// which it may worsen before a change counts as a regression. README.md
// ("Bounds") records the spreads they were calibrated against; per-layer
// metrics have none.
var bounds = map[string]float64{
	"setup_s":            0.25,
	"latency_p50_ms":     0.20,
	"latency_p90_ms":     0.25,
	"cycles_per_s":       0.25,
	"cpu_ms_per_cycle":   0.25,
	"alloc_kb_per_cycle": 0.25,
	"live_heap_mb":       0.25,
	"access_bytes_mean":  0.15,
	"tuning_bytes_mean":  0.20,
}

// perLayer is one layer each, reported by the traced run. A metric a
// workload does not exercise (transport on a bare wire, journal on an
// in-memory server, sockets on paper_sim) reads 0 there.
var perLayer = []metricDef{
	// engine, live, from the benchmark's own engine.Probe.
	{"engine.resolve.ms_per_cycle", "ms", "lower"},
	{"engine.resolve.misses_per_s", "1/s", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.schedule.ms_per_cycle", "ms", "lower"},
	{"engine.schedule_delta.ms_per_cycle", "ms", "lower"},
	{"engine.schedule.full_ratio", "ratio", "lower"},
	{"engine.schedule.pending_mean", "count", "lower"},
	{"engine.build.ms_per_cycle", "ms", "lower"},
	{"engine.prune_delta.ms_per_cycle", "ms", "lower"},
	{"engine.prune.fallback_ratio", "ratio", "lower"},
	{"engine.encode.ms_per_cycle", "ms", "lower"},
	{"engine.encode.kb_per_cycle", "KB", "lower"},
	{"engine.degraded_cycles", "count", "lower"},
	// netcast server, live.
	{"netcast.server.cycle_gap_ms_p50", "ms", "lower"},
	{"netcast.server.cycle_gap_ms_p90", "ms", "lower"},
	{"netcast.server.self_ms_per_cycle", "ms", "lower"},
	{"netcast.server.pending_mean", "count", "lower"},
	{"netcast.server.rejected", "count", "lower"},
	{"netcast.server.subscribers", "count", "higher"},
	// netcast client and mux, live, spans around the benchmark's own calls.
	{"netcast.client.dial_ms_p50", "ms", "lower"},
	{"netcast.client.submit_ms_p50", "ms", "lower"},
	{"netcast.client.submit_ms_p90", "ms", "lower"},
	{"netcast.client.retrieve_ms_p50", "ms", "lower"},
	{"netcast.client.cycles_per_retrieval", "count", "lower"},
	{"netcast.client.doze_bytes_mean", "B", "lower"},
	{"netcast.client.air_kb_per_cycle", "KB", "lower"},
	{"netcast.client.recoveries", "count", "lower"},
	{"netcast.mux.submit_ms_p50", "ms", "lower"},
	{"netcast.mux.submit_ms_p90", "ms", "lower"},
	{"netcast.mux.sent_ratio", "ratio", "higher"},
	{"netcast.mux.lateness_ms_p90", "ms", "lower"},
	// Go runtime counters for the whole process.
	{"proc.cpu_user_ms_per_cycle", "ms", "lower"},
	{"proc.cpu_sys_ms_per_cycle", "ms", "lower"},
	{"proc.gc_cpu_share", "ratio", "lower"},
	{"proc.mallocs_per_cycle", "count", "lower"},
	{"proc.goroutines", "count", "lower"},
	// client-side replay over cycles captured off the live downlink.
	{"netcast.capture.read_us_per_cycle", "us", "lower"},
	{"wire.decode_index_us", "us", "lower"},
	{"wire.decode_second_tier_us", "us", "lower"},
	{"core.navigate_us_per_query", "us", "lower"},
	{"succinct.parse_us", "us", "lower"},
	{"succinct.cursor_lookup_us_per_query", "us", "lower"},
	{"xmldoc.parse_us_per_doc", "us", "lower"},
	{"xmldoc.parse_mb_per_s", "MB/s", "higher"},
	// server-side replay over the workload's collection and pool.
	{"xpath.parse_us_per_query", "us", "lower"},
	{"yfilter.new_ms", "ms", "lower"},
	{"yfilter.filter_ms", "ms", "lower"},
	{"yfilter.filter_parallel_ms", "ms", "lower"},
	{"yfilter.match_doc_us", "us", "lower"},
	{"dataguide.merge_ms", "ms", "lower"},
	{"dataguide.merge_parallel_ms", "ms", "lower"},
	{"dataguide.forest_add_us", "us", "lower"},
	{"core.build_ci_ms", "ms", "lower"},
	{"core.prune_full_us", "us", "lower"},
	{"core.prune_incremental_us", "us", "lower"},
	{"core.pack_us", "us", "lower"},
	{"wire.encode_index_us", "us", "lower"},
	{"wire.encode_second_tier_us", "us", "lower"},
	{"succinct.encode_tier_us", "us", "lower"},
	{"schedule.plan_full_us", "us", "lower"},
	{"schedule.plan_indexed_us", "us", "lower"},
	{"broadcast.build_cycle_us", "us", "lower"},
	{"broadcast.encode_us", "us", "lower"},
	{"xmldoc.marshal_us_per_doc", "us", "lower"},
	{"transport.encode_us_per_frame", "us", "lower"},
	{"transport.encode_mb_per_s", "MB/s", "higher"},
	{"transport.decode_us_per_frame", "us", "lower"},
	{"transport.ratio.doc", "ratio", "lower"},
	{"transport.ratio.index", "ratio", "lower"},
	{"transport.ratio.second_tier", "ratio", "lower"},
	{"journal.admit_us", "us", "lower"},
	{"journal.commit_us", "us", "lower"},
	{"journal.snapshot_ms", "ms", "lower"},
	{"journal.recover_ms", "ms", "lower"},
	// the byte-clock simulator: exact counts and one wall time.
	{"sim.two_tier.index_bytes_mean", "B", "lower"},
	{"sim.two_tier.cycle_bytes_mean", "B", "lower"},
	{"sim.two_tier.cycles", "count", "lower"},
	{"sim.one_tier.access_bytes_mean", "B", "lower"},
	{"sim.one_tier.tuning_bytes_mean", "B", "lower"},
	{"sim.one_tier.index_bytes_mean", "B", "lower"},
	{"sim.succinct.index_bytes_mean", "B", "lower"},
	{"sim.succinct.index_tuning_bytes_mean", "B", "lower"},
	{"sim.k4.access_bytes_mean", "B", "lower"},
	{"sim.k4.tuning_bytes_mean", "B", "lower"},
	{"sim.compress.access_bytes_mean", "B", "lower"},
	{"sim.compress.cycle_bytes_mean", "B", "lower"},
	{"sim.run_ms", "ms", "lower"},
}

// sample is one reported value: N is how many observations it summarises
// (latencies in a percentile, cycles in a per-cycle mean, 1 for a count).
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects a run's values by name; the unit comes from the tables
// above so a metric can never be reported under two units.
type metricSet map[string]sample

var unitOf = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

func (m metricSet) set(name string, v float64, n int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = sample{Value: v, Unit: unit, N: n}
}

// fill gives every metric of defs that the run did not set the value 0, so
// each workload reports the whole list.
func (m metricSet) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = sample{Unit: d.Unit}
		}
	}
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics, so a percentile of cycle-quantised latencies
// moves smoothly as the mix of cycle counts shifts. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procSnap is the process's resource counters at one instant.
type procSnap struct {
	at         time.Time
	user, sys  time.Duration
	totalAlloc uint64
	mallocs    uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
}

var procSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func snapProc() procSnap {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := procSnap{
		at:         time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		totalAlloc: m.TotalAlloc,
		mallocs:    m.Mallocs,
	}
	samples := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	return s
}

// heapSampler reads the runtime's live-heap gauge (bytes marked live by the
// most recent collection) every heapEvery while it runs, and reports the
// mean. The heap swings with where each client is in its retrieval (a
// finished one drops ~90 parsed documents), so one reading says little;
// a hundred readings across as many collections are steady, and unlike
// runtime.GC() reading costs the program under test nothing.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	sum  float64
	n    int
}

const heapEvery = 50 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(heapEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(sample)
				if sample[0].Value.Kind() == metrics.KindUint64 {
					h.sum += float64(sample[0].Value.Uint64())
					h.n++
				}
			}
		}
	}()
	return h
}

// finish stops the sampler and sets live_heap_mb.
func (h *heapSampler) finish(m metricSet) {
	close(h.stop)
	<-h.done
	m.set("live_heap_mb", ratio(h.sum, float64(h.n))/(1<<20), h.n)
}

// setProcE2E fills the process-level end-to-end metrics from snapshots taken
// at consecutive slice boundaries, cycles[i] being the cycles aired up to
// snaps[i]. Each metric is the median over the slices, not the whole
// interval's quotient: a busy neighbour slows this kind of box for a second
// or two at a time, and a median of ten one-second slices shrugs that off.
func (m metricSet) setProcE2E(snaps []procSnap, cycles []int64) {
	var perS, cpu, alloc []float64
	for i := 1; i < len(snaps); i++ {
		a, b, c := snaps[i-1], snaps[i], float64(cycles[i]-cycles[i-1])
		if c == 0 {
			continue
		}
		perS = append(perS, ratio(c, b.at.Sub(a.at).Seconds()))
		cpu = append(cpu, (ms(b.user-a.user)+ms(b.sys-a.sys))/c)
		alloc = append(alloc, float64(b.totalAlloc-a.totalAlloc)/1024/c)
	}
	n := int(cycles[len(cycles)-1] - cycles[0])
	m.set("cycles_per_s", percentile(perS, 0.5), n)
	m.set("cpu_ms_per_cycle", percentile(cpu, 0.5), n)
	m.set("alloc_kb_per_cycle", percentile(alloc, 0.5), n)
}

// setProcLayer fills the proc.* layer metrics for the same interval.
func (m metricSet) setProcLayer(a, b procSnap, cycles int64) {
	n, c := int(cycles), float64(cycles)
	m.set("proc.cpu_user_ms_per_cycle", ratio(ms(b.user-a.user), c), n)
	m.set("proc.cpu_sys_ms_per_cycle", ratio(ms(b.sys-a.sys), c), n)
	m.set("proc.gc_cpu_share", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), 1)
	m.set("proc.mallocs_per_cycle", ratio(float64(b.mallocs-a.mallocs), c), n)
	m.set("proc.goroutines", float64(runtime.NumGoroutine()), 1)
}

// timer reports the mean duration of one call of op.
type timer func(op func()) time.Duration

// stopwatch is the replay legs' timer: it runs op in batches until one batch
// lasts long enough to trust the clock, and takes the fastest of three such
// batches, the usual guard against a scheduler hiccup landing in a
// microsecond timing. quick times a single call.
type stopwatch struct{ quick bool }

func (sw stopwatch) time(op func()) time.Duration {
	const (
		minBatch = 5 * time.Millisecond
		batches  = 3
	)
	op() // warm caches and lazy state outside the timing
	batch := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(start)
	}
	if sw.quick {
		return batch(1)
	}
	n := 1
	for batch(n) < minBatch && n < 1<<20 {
		n *= 2
	}
	best := batch(n)
	for b := 1; b < batches; b++ {
		if d := batch(n); d < best {
			best = d
		}
	}
	return best / time.Duration(n)
}
