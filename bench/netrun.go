package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netcast"
	"repro/internal/stats"
	"repro/internal/xmldoc"
)

// netWorkload configures one network workload: a real netcast server on
// host loopback, one open-loop background generator on a single mux
// connection, and closed-loop foreground clients whose every result is
// checked against the oracle.
type netWorkload struct {
	name, why string
	// interval is ServerConfig.CycleInterval; the cycle loop is ticker-only,
	// so this is the channel's pace.
	interval time.Duration
	// rate is the background submission rate in requests per second.
	rate float64
	// listeners is the number of passive subscribers that only drain the
	// downlink: the audience whose fan-out cost is being measured.
	listeners int
	compress  bool
	succinct  bool
	// foreground is the number of closed-loop foreground clients.
	foreground int
	// durable journals to a state directory (Fsync off).
	durable bool
	// The server starts with startDocs documents; a live workload adds one
	// at a time, evenly over the run, until numDocs.
	startDocs, numDocs int
}

const (
	setupReps       = 9
	retrieveTimeout = 20 * time.Second
	stallAfter      = time.Second
	watchEvery      = 100 * time.Millisecond
	captureCycles   = 64
	captureBytes    = 8 << 20
	loadTail        = 250 * time.Millisecond
	procSlice       = time.Second
)

type runOpts struct {
	seed   int64
	warmup time.Duration
	window time.Duration
	trace  bool
	// quick shrinks everything that only buys precision — one set-up, a
	// tenth of the background rate, a short tail, a small simulation,
	// single-shot replay timings — so the smoke test exercises every code
	// path in a fraction of a second even under the race detector.
	quick bool
	// tmpDir is where a durable workload keeps its state directory; outDir,
	// when set, receives the traced run's span file.
	tmpDir, outDir string
}

// rig is one set-up: generated inputs, a running server and every dialled
// connection.
type rig struct {
	w         netWorkload
	in        *inputs
	srv       *netcast.Server
	mux       *netcast.Mux
	streams   []*netcast.LogicalClient
	fg        []*netcast.Client
	listeners []net.Conn
	drained   sync.WaitGroup
	stateDir  string
	dials     []time.Duration
}

func setupRig(w netWorkload, o runOpts, probe *traceProbe) (_ *rig, err error) {
	r := &rig{w: w}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.in, err = makeInputs(o.seed, w.numDocs, w.startDocs); err != nil {
		return nil, err
	}
	cfg := netcast.ServerConfig{
		Collection:    r.in.coll,
		CycleCapacity: cycleCapacity,
		CycleInterval: w.interval,
		UplinkAddr:    "127.0.0.1:0",
		BroadcastAddr: "127.0.0.1:0",
		Compress:      w.compress,
	}
	if w.succinct {
		cfg.IndexEncoding = core.EncodingSuccinct
	}
	if probe != nil {
		cfg.Probe = probe
	}
	if w.durable {
		if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
			return nil, err
		}
		if r.stateDir, err = os.MkdirTemp(o.tmpDir, "state-"); err != nil {
			return nil, err
		}
		cfg.StateDir = r.stateDir
	}
	if r.srv, err = netcast.StartServer(cfg); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	if r.mux, err = netcast.DialMux(r.srv.UplinkAddr(), netcast.MuxConfig{Compress: w.compress}); err != nil {
		return nil, err
	}
	for i := 0; i < muxStreams; i++ {
		lc, err := r.mux.Open()
		if err != nil {
			return nil, err
		}
		r.streams = append(r.streams, lc)
	}
	for i := 0; i < w.foreground; i++ {
		t := time.Now()
		c, err := netcast.Dial(r.srv.UplinkAddr(), r.srv.BroadcastAddr(), core.SizeModel{})
		if err != nil {
			return nil, err
		}
		r.dials = append(r.dials, time.Since(t))
		r.fg = append(r.fg, c)
	}
	for i := 0; i < w.listeners; i++ {
		conn, err := net.Dial("tcp", r.srv.BroadcastAddr())
		if err != nil {
			return nil, fmt.Errorf("dial listener: %w", err)
		}
		r.listeners = append(r.listeners, conn)
		r.drained.Add(1)
		go func() {
			defer r.drained.Done()
			_, _ = io.Copy(io.Discard, conn)
		}()
	}
	if !r.awaitSubscribers() {
		return nil, fmt.Errorf("only %d of %d subscribers registered", r.srv.Stats().Subscribers, len(r.fg)+len(r.listeners))
	}
	return r, nil
}

// awaitSubscribers waits until the server has registered every broadcast
// connection dialled so far. A dial returns once the kernel has the
// connection; the server's accept loop registers it a moment later. Set-up
// is complete only then — and Shutdown must not run before that (README,
// known hazard 3).
func (r *rig) awaitSubscribers() bool {
	want := len(r.fg) + len(r.listeners)
	for deadline := time.Now().Add(5 * time.Second); r.srv.Stats().Subscribers < want; {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

func (r *rig) close() {
	if r.srv != nil {
		r.awaitSubscribers() // a no-op unless set-up failed half way
	}
	for _, c := range r.fg {
		c.Close()
	}
	if r.mux != nil {
		r.mux.Close()
	}
	for _, c := range r.listeners {
		c.Close()
	}
	if r.srv != nil {
		r.srv.Shutdown()
	}
	r.drained.Wait()
	if r.stateDir != "" {
		_ = os.RemoveAll(r.stateDir)
	}
}

// bgRecord is one background submission as sent.
type bgRecord struct {
	due, sent, acked time.Time
	err              error
}

// background is the open-loop generator: it sends each submission when it
// falls due, whether or not the server has kept up, over one mux
// connection. A send that cannot start on time is sent late, not dropped,
// and its lateness is recorded.
func (r *rig) background(ctx context.Context, sched []bgSend, origin time.Time) []bgRecord {
	recs := make([]bgRecord, 0, len(sched))
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for _, s := range sched {
		due := origin.Add(s.Due)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return recs
			case <-timer.C:
			}
		}
		if ctx.Err() != nil {
			return recs
		}
		rec := bgRecord{due: due, sent: time.Now()}
		rec.err = r.streams[s.Stream].Submit(r.in.pool[s.Query])
		rec.acked = time.Now()
		recs = append(recs, rec)
	}
	return recs
}

// foreground is one closed-loop client: think, Submit, Retrieve, check,
// repeat. The think time is uniform over one cycle interval, which takes the
// client out of phase with the cycle ticker so latencies are not all whole
// numbers of cycles.
func (r *rig) foreground(ctx context.Context, client int, added *atomic.Int64) []requestTrace {
	c := r.fg[client]
	rng := r.in.foregroundRand(client)
	var recs []requestTrace
	for seq := 0; ctx.Err() == nil; seq++ {
		qi := rng.Intn(len(r.in.pool))
		think := time.Duration(rng.Int63n(int64(r.w.interval)))
		select {
		case <-ctx.Done():
			return recs
		case <-time.After(think):
		}
		q := r.in.pool[qi]
		rec := requestTrace{client: client, seq: seq, query: q.String(), start: time.Now()}
		visible := r.w.startDocs + int(added.Load())
		rec.err = c.Submit(q)
		rec.acked = time.Now()
		if rec.err == nil {
			rctx, cancel := context.WithTimeout(ctx, retrieveTimeout)
			docs, st, err := c.Retrieve(rctx, q)
			cancel()
			rec.err = err
			rec.docs, rec.cycles = len(docs), st.Cycles
			rec.tuning, rec.doze = st.TuningBytes, st.DozeBytes
			rec.resyncs, rec.reconnects = st.Resyncs, st.Reconnects
			if err == nil {
				rec.wrong = !r.in.check(qi, docs, visible)
			}
		}
		rec.end = time.Now()
		// A call cut short because the benchmark itself is stopping is not
		// an operation of the workload.
		rec.cancelledByBenchmark = rec.err != nil && ctx.Err() != nil
		recs = append(recs, rec)
	}
	return recs
}

// check compares one retrieval with the oracle. visible is how many
// documents the collection held when the query was submitted: the result
// must contain every oracle answer among those, and nothing outside the
// oracle answer over the whole sequence (a document added mid-retrieval may
// or may not be delivered). On a static collection that is set equality.
// Each document must also carry the node count of the one generated.
func (in *inputs) check(qi int, docs []*xmldoc.Document, visible int) bool {
	want := in.answers[qi]
	got := make(map[xmldoc.DocID]bool, len(docs))
	for _, d := range docs {
		i := sort.Search(len(want), func(k int) bool { return want[k] >= d.ID })
		if i == len(want) || want[i] != d.ID || got[d.ID] {
			return false
		}
		if d.Root.NumNodes() != in.docs[d.ID-1].Root.NumNodes() {
			return false
		}
		got[d.ID] = true
	}
	for _, id := range want {
		if int(id) <= visible && !got[id] {
			return false
		}
	}
	return true
}

// watch samples the server every 100 ms. It is the stall watchdog: if
// cycles stop advancing for over a second while requests are pending, the
// cycle loop has died behind a live uplink (README, known hazard 2) and
// every such second counts as a failed operation.
type watch struct {
	pendingSum, samples int
	stalledTicks        int
}

func (r *rig) watch(ctx context.Context, from, to time.Time) watch {
	var w watch
	tick := time.NewTicker(watchEvery)
	defer tick.Stop()
	last, advanced := r.srv.Cycles(), time.Now()
	for {
		select {
		case <-ctx.Done():
			return w
		case now := <-tick.C:
			c, p := r.srv.Cycles(), r.srv.Pending()
			if c != last || p == 0 {
				last, advanced = c, now
			} else if now.Sub(advanced) > stallAfter {
				w.stalledTicks++
			}
			if !now.Before(from) && now.Before(to) {
				w.pendingSum += p
				w.samples++
			}
		}
	}
}

func runNet(w netWorkload, o runOpts) (*result, error) {
	res := newResult(w.name, w.why, o)
	var probe *traceProbe
	if o.trace {
		probe = &traceProbe{}
	}
	reps := setupReps
	if o.quick {
		reps = 1
	}
	var setups, dials []float64
	setUp := func(p *traceProbe) (*rig, error) {
		t := time.Now()
		r, err := setupRig(w, o, p)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
		for _, d := range r.dials {
			dials = append(dials, ms(d))
		}
		return r, nil
	}
	// setup_s is the median of several set-ups, so one slow page fault or
	// port bind does not decide it. Half are timed before the run and half
	// after it: a busy neighbour slows this box for a second or two at a
	// time, and set-ups made back to back would all fall into one such
	// spell.
	for i := 0; i < reps/2; i++ {
		r, err := setUp(nil)
		if err != nil {
			return nil, err
		}
		r.close()
	}
	r, err := setUp(probe)
	if err != nil {
		return nil, err
	}
	res.Fingerprint = fmt.Sprintf("%016x", r.in.fingerprint())
	err = r.measure(res, o, probe)
	r.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for len(setups) < reps {
		r, err := setUp(nil)
		if err != nil {
			return nil, err
		}
		r.close()
	}
	res.Metrics.set("setup_s", percentile(setups, 0.5), len(setups))
	if o.trace {
		res.Metrics.set("netcast.client.dial_ms_p50", percentile(dials, 0.5), len(dials))
	}
	return res, nil
}

// measure applies the workload's load to a set-up rig and fills res with
// everything but the set-up metrics.
func (r *rig) measure(res *result, o runOpts, probe *traceProbe) error {
	w := r.w
	tail, rate := loadTail, w.rate
	if o.quick {
		tail, rate = loadTail/2, w.rate/10
	}

	// The load runs from origin to loadEnd; the window is the stretch of it
	// after the warm-up and before the tail. The tail lets a background send
	// that fell due in the window's last instant go out late rather than
	// never.
	origin := time.Now()
	windowStart := origin.Add(o.warmup)
	windowEnd := windowStart.Add(o.window)
	loadEnd := windowEnd.Add(tail)
	ctx, stop := context.WithDeadline(context.Background(), loadEnd)
	defer stop()

	var wg sync.WaitGroup
	var bg []bgRecord
	sched := r.in.backgroundSchedule(rate, loadEnd.Sub(origin))
	wg.Add(1)
	go func() {
		defer wg.Done()
		bg = r.background(ctx, sched, origin)
	}()

	var added atomic.Int64
	var addErr error
	if extra := r.in.docs[w.startDocs:]; len(extra) > 0 {
		every := loadEnd.Sub(origin) / time.Duration(len(extra)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for _, d := range extra {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				if err := r.srv.AddDocument(d); err != nil {
					addErr = err
					return
				}
				added.Add(1)
			}
		}()
	}

	fg := make([][]requestTrace, len(r.fg))
	for i := range r.fg {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fg[i] = r.foreground(ctx, i, &added)
		}(i)
	}

	var wd watch
	wg.Add(1)
	go func() {
		defer wg.Done()
		wd = r.watch(ctx, windowStart, windowEnd)
	}()

	time.Sleep(time.Until(windowStart))
	snaps, cycles := []procSnap{snapProc()}, []int64{r.srv.Cycles()}
	heap := startHeapSampler()

	// The traced run adds one recording subscriber for the window: it stamps
	// every frame it reads and keeps the first cycles as a capture.
	var rec *stampWriter
	if o.trace {
		rec = &stampWriter{limit: captureBytes}
		recCtx, recStop := context.WithDeadline(ctx, windowEnd)
		defer recStop()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Ends with a deadline error when the window closes; what it
			// wrote until then is the recording.
			_, _ = netcast.Record(recCtx, r.srv.BroadcastAddr(), 1<<30, rec)
		}()
	}

	// The window is cut into slices for the per-cycle medians (setProcE2E).
	for at := windowStart.Add(procSlice); ; at = at.Add(procSlice) {
		if at.After(windowEnd) {
			at = windowEnd
		}
		time.Sleep(time.Until(at))
		snaps, cycles = append(snaps, snapProc()), append(cycles, r.srv.Cycles())
		if at.Equal(windowEnd) {
			break
		}
	}
	heap.finish(res.Metrics)
	srvStats := r.srv.Stats()
	wg.Wait()
	if addErr != nil {
		return fmt.Errorf("add document: %w", addErr)
	}

	// Foreground: a retrieval counts if it started and ended in the window.
	var lat, submit, retrieve, access, tuning, doze, cyclesPer []float64
	var reqs []requestTrace
	var airBytes, airCycles, recoveries int64
	for _, recs := range fg {
		for _, q := range recs {
			if q.start.Before(windowStart) || q.end.After(windowEnd) || q.cancelledByBenchmark {
				continue
			}
			reqs = append(reqs, q)
			res.Attempted++
			if q.err != nil || q.wrong {
				res.Failed++
				if q.wrong {
					res.Wrong++
				}
				res.note("foreground %s: err=%v wrong=%v", q.query, q.err, q.wrong)
				continue
			}
			lat = append(lat, ms(q.end.Sub(q.start)))
			submit = append(submit, ms(q.acked.Sub(q.start)))
			retrieve = append(retrieve, ms(q.end.Sub(q.acked)))
			access = append(access, float64(q.tuning+q.doze))
			tuning = append(tuning, float64(q.tuning))
			doze = append(doze, float64(q.doze))
			cyclesPer = append(cyclesPer, float64(q.cycles))
			airBytes += q.tuning + q.doze
			airCycles += int64(q.cycles)
			recoveries += int64(q.resyncs + q.reconnects)
		}
	}
	// Background: a submission counts if it fell due in the window and was
	// sent. One the generator never got to (it sends in order, so a slow
	// ack delays everything behind it) is no operation of the server's; it
	// lowers netcast.mux.sent_ratio instead.
	var muxLat, late []float64
	scheduled, sent := 0, 0
	for _, s := range sched {
		if d := origin.Add(s.Due); !d.Before(windowStart) && d.Before(windowEnd) {
			scheduled++
		}
	}
	for _, b := range bg {
		if b.due.Before(windowStart) || !b.due.Before(windowEnd) {
			continue
		}
		sent++
		res.Attempted++
		if b.err != nil {
			res.Failed++
			res.note("background submit: %v", b.err)
			continue
		}
		muxLat = append(muxLat, ms(b.acked.Sub(b.due)))
		late = append(late, ms(b.sent.Sub(b.due)))
	}
	stalled := (wd.stalledTicks*int(watchEvery) + int(time.Second) - 1) / int(time.Second)
	res.Attempted += stalled
	res.Failed += stalled
	if stalled > 0 {
		res.note("cycle loop stalled for %d s with requests pending", stalled)
	}
	res.Correct = res.Wrong == 0 && stalled == 0

	m := res.Metrics
	m.set("latency_p50_ms", percentile(lat, 0.5), len(lat))
	m.set("latency_p90_ms", percentile(lat, 0.9), len(lat))
	m.setProcE2E(snaps, cycles)
	m.set("access_bytes_mean", stats.Mean(access), len(access))
	m.set("tuning_bytes_mean", stats.Mean(tuning), len(tuning))
	if !o.trace {
		return nil
	}

	probe.engineMetrics(m, windowStart, windowEnd)
	traces, resolves := probe.cycles()
	markDelivered(traces, rec.stamps)
	var gaps []float64
	var self time.Duration
	var selfN int
	for i, c := range traces {
		if c.start.Before(windowStart) || !c.start.Before(windowEnd) {
			continue
		}
		if i > 0 {
			gaps = append(gaps, ms(c.start.Sub(traces[i-1].start)))
		}
		if !c.delivered.IsZero() {
			self += c.delivered.Sub(c.start) - c.engineWall
			selfN++
		}
	}
	m.set("netcast.server.cycle_gap_ms_p50", percentile(gaps, 0.5), len(gaps))
	m.set("netcast.server.cycle_gap_ms_p90", percentile(gaps, 0.9), len(gaps))
	m.set("netcast.server.self_ms_per_cycle", ratio(ms(self), float64(selfN)), selfN)
	m.set("netcast.server.pending_mean", ratio(float64(wd.pendingSum), float64(wd.samples)), wd.samples)
	m.set("netcast.server.rejected", float64(srvStats.RejectedRate+srvStats.RejectedPending), 1)
	m.set("netcast.server.subscribers", float64(srvStats.Subscribers), 1)
	m.set("netcast.client.submit_ms_p50", percentile(submit, 0.5), len(submit))
	m.set("netcast.client.submit_ms_p90", percentile(submit, 0.9), len(submit))
	m.set("netcast.client.retrieve_ms_p50", percentile(retrieve, 0.5), len(retrieve))
	m.set("netcast.client.cycles_per_retrieval", stats.Mean(cyclesPer), len(cyclesPer))
	m.set("netcast.client.doze_bytes_mean", stats.Mean(doze), len(doze))
	m.set("netcast.client.air_kb_per_cycle", ratio(float64(airBytes)/1024, float64(airCycles)), int(airCycles))
	m.set("netcast.client.recoveries", float64(recoveries), len(lat))
	m.set("netcast.mux.submit_ms_p50", percentile(muxLat, 0.5), len(muxLat))
	m.set("netcast.mux.submit_ms_p90", percentile(muxLat, 0.9), len(muxLat))
	m.set("netcast.mux.sent_ratio", ratio(float64(sent), float64(scheduled)), scheduled)
	m.set("netcast.mux.lateness_ms_p90", percentile(late, 0.9), len(late))
	m.setProcLayer(snaps[0], snaps[len(snaps)-1], cycles[len(cycles)-1]-cycles[0])

	raw := rec.buf.Bytes()
	captured, err := netcast.ReadCapture(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("read capture: %w", err)
	}
	if len(captured) > captureCycles {
		captured = captured[:captureCycles]
	}
	pendingMean := int(ratio(float64(wd.pendingSum), float64(wd.samples)))
	if err := replay(m, r.in, w, captured, raw, pendingMean, o); err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	if o.outDir != "" {
		path, err := writeSpans(o.outDir, spanFile{Workload: w.name, Seed: o.seed, WindowS: o.window.Seconds(),
			Spans: buildSpans(windowStart, windowEnd, traces, resolves, reqs)})
		if err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		res.SpanFile = path
	}
	return nil
}
