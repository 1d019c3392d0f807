package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/journal"
	"repro/internal/netcast"
	"repro/internal/netcast/transport"
	"repro/internal/schedule"
	"repro/internal/succinct"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// The replay legs time one exported call of one layer at a time, on a
// single goroutine, over the workload's real inputs: its collection, its
// query pool, and cycles captured off the live downlink. A layer the
// workload's configuration never calls is not replayed and reads 0.

// navQueries is how many pool queries the client-side lookup legs average
// over; replayCycles how many captured cycles the per-cycle legs visit.
const (
	navQueries   = 32
	replayCycles = 8
)

// sampleNavigators prepares navQueries client-side navigators for queries
// spread evenly over the pool.
func sampleNavigators(pool []xpath.Path) []*core.Navigator {
	navs := make([]*core.Navigator, navQueries)
	for i := range navs {
		navs[i] = core.NewNavigator(pool[i*len(pool)/navQueries])
	}
	return navs
}

func replay(m metricSet, in *inputs, w netWorkload, captured []netcast.CycleRecord, raw []byte, pendingMean int, o runOpts) error {
	timeOp := stopwatch{quick: o.quick}.time
	if err := replayClient(m, timeOp, in, w, captured, raw); err != nil {
		return err
	}
	if err := replayServer(m, timeOp, in, w, pendingMean); err != nil {
		return err
	}
	if w.compress {
		if err := replayTransport(m, timeOp, captured); err != nil {
			return err
		}
	}
	if w.durable {
		return replayJournal(m, timeOp, in, pendingMean, o.tmpDir)
	}
	return nil
}

// replayClient walks the client's half: frame scan, index decode,
// navigation, document parse.
func replayClient(m metricSet, timeOp timer, in *inputs, w netWorkload, captured []netcast.CycleRecord, raw []byte) error {
	if len(captured) == 0 {
		return fmt.Errorf("no complete cycle was captured")
	}
	model := core.DefaultSizeModel()
	all, err := netcast.ReadCapture(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	d := timeOp(func() { _, _ = netcast.ReadCapture(bytes.NewReader(raw)) })
	m.set("netcast.capture.read_us_per_cycle", us(d)/float64(len(all)), len(all))

	cycles := captured
	if len(cycles) > replayCycles {
		cycles = cycles[:replayCycles]
	}
	n := float64(len(cycles))
	if !w.succinct {
		navs := sampleNavigators(in.pool)
		// CycleRecord.DecodeIndex is catalog decode + wire.DecodeIndex +
		// root labels: what a client does with a node-stream first tier.
		var ixs []*core.Index
		for i := range cycles {
			ix, err := cycles[i].DecodeIndex(model)
			if err != nil {
				return fmt.Errorf("decode captured index: %w", err)
			}
			ixs = append(ixs, ix)
		}
		d = timeOp(func() {
			for i := range cycles {
				_, _ = cycles[i].DecodeIndex(model)
			}
		})
		m.set("wire.decode_index_us", us(d)/n, len(cycles))
		d = timeOp(func() {
			for _, ix := range ixs {
				for _, nav := range navs {
					nav.Lookup(ix)
				}
			}
		})
		m.set("core.navigate_us_per_query", us(d)/(n*navQueries), len(cycles)*navQueries)
	}
	d = timeOp(func() {
		for i := range cycles {
			_, _ = cycles[i].SecondTier(model)
		}
	})
	m.set("wire.decode_second_tier_us", us(d)/n, len(cycles))

	var docs [][]byte
	var docBytes int
	for i := range cycles {
		for _, p := range cycles[i].Docs {
			docs = append(docs, p[2:]) // 2 ID bytes, then the XML
			docBytes += len(p) - 2
		}
	}
	if len(docs) == 0 {
		return fmt.Errorf("captured cycles carry no documents")
	}
	for _, p := range docs {
		if _, err := xmldoc.Parse(bytes.NewReader(p)); err != nil {
			return fmt.Errorf("parse captured document: %w", err)
		}
	}
	d = timeOp(func() {
		for _, p := range docs {
			_, _ = xmldoc.Parse(bytes.NewReader(p))
		}
	})
	m.set("xmldoc.parse_us_per_doc", us(d)/float64(len(docs)), len(docs))
	m.set("xmldoc.parse_mb_per_s", ratio(float64(docBytes)/1e6, d.Seconds()), len(docs))
	return nil
}

// replayServer walks the server's half from query text to encoded cycle.
func replayServer(m metricSet, timeOp timer, in *inputs, w netWorkload, pendingMean int) error {
	model := core.DefaultSizeModel()
	coll, pool := in.coll, in.pool
	workers := runtime.GOMAXPROCS(0)
	nq, nd := float64(len(pool)), float64(coll.Len())

	exprs := make([]string, len(pool))
	for i, q := range pool {
		exprs[i] = q.String()
	}
	d := timeOp(func() {
		for _, e := range exprs {
			_, _ = xpath.Parse(e)
		}
	})
	m.set("xpath.parse_us_per_query", us(d)/nq, len(pool))

	m.set("yfilter.new_ms", ms(timeOp(func() { yfilter.New(pool) })), 1)
	f := yfilter.New(pool)
	m.set("yfilter.filter_ms", ms(timeOp(func() { f.Filter(coll) })), 1)
	m.set("yfilter.filter_parallel_ms", ms(timeOp(func() { f.FilterParallel(coll, workers) })), 1)
	d = timeOp(func() {
		for _, doc := range coll.Docs() {
			f.MatchDocument(doc)
		}
	})
	m.set("yfilter.match_doc_us", us(d)/nd, coll.Len())

	m.set("dataguide.merge_ms", ms(timeOp(func() { dataguide.Merge(coll) })), 1)
	m.set("dataguide.merge_parallel_ms", ms(timeOp(func() { dataguide.MergeParallel(coll, workers) })), 1)
	d = timeOp(func() {
		var forest dataguide.Forest
		for _, doc := range coll.Docs() {
			forest.Add(doc)
		}
	})
	m.set("dataguide.forest_add_us", us(d)/nd, coll.Len())

	ci, err := core.BuildCI(coll, model)
	if err != nil {
		return err
	}
	m.set("core.build_ci_ms", ms(timeOp(func() { _, _ = core.BuildCI(coll, model) })), 1)

	// Pruning under drift: the active set is a window of the pool that
	// slides by 5 % per step, so the incremental view swaps that share of
	// its queries each update while the full prune starts over.
	swap := len(pool) / 20
	active := len(pool) - 4*swap
	window := func(i int) []xpath.Path {
		off := (i % 5) * swap
		return pool[off : off+active]
	}
	step := 0
	m.set("core.prune_full_us", us(timeOp(func() {
		step++
		_, _, _ = ci.Prune(window(step))
	})), 1)
	view := core.NewPrunedView(0)
	if _, _, err := view.Update(ci, window(0)); err != nil {
		return err
	}
	step = 0
	m.set("core.prune_incremental_us", us(timeOp(func() {
		step++
		_, _, _ = view.Update(ci, window(step))
	})), 1)

	pci, _, err := ci.Prune(pool)
	if err != nil {
		return err
	}
	m.set("core.pack_us", us(timeOp(func() { pci.Pack(core.FirstTier) })), 1)
	packing := pci.Pack(core.FirstTier)
	cat := wire.BuildCatalog(pci)
	buf := make([]byte, 0, 1<<16)
	if w.succinct {
		if _, err := succinct.AppendTier(buf[:0], pci, cat, model); err != nil {
			return err
		}
		m.set("succinct.encode_tier_us", us(timeOp(func() { _, _ = succinct.AppendTier(buf[:0], pci, cat, model) })), 1)
		seg, err := succinct.EncodeTier(pci, cat, model)
		if err != nil {
			return err
		}
		tier, err := succinct.Parse(seg, model, cat)
		if err != nil {
			return err
		}
		m.set("succinct.parse_us", us(timeOp(func() { _, _ = succinct.Parse(seg, model, cat) })), 1)
		navs := sampleNavigators(pool)
		d = timeOp(func() {
			for _, nav := range navs {
				tier.NewCursor().Lookup(nav.Filter())
			}
		})
		m.set("succinct.cursor_lookup_us_per_query", us(d)/navQueries, navQueries)
	} else {
		if _, err := wire.AppendIndex(buf[:0], pci, packing, cat, nil); err != nil {
			return err
		}
		m.set("wire.encode_index_us", us(timeOp(func() { _, _ = wire.AppendIndex(buf[:0], pci, packing, cat, nil) })), 1)
	}

	// One cycle's worth of documents, as the scheduler would fill it.
	var plan []xmldoc.DocID
	var entries []wire.SecondTierEntry
	offset := 0
	for _, doc := range coll.Docs() {
		if offset+doc.Size() > cycleCapacity {
			break
		}
		plan = append(plan, doc.ID)
		entries = append(entries, wire.SecondTierEntry{Doc: doc.ID, Offset: uint64(offset)})
		offset += doc.Size()
	}
	m.set("wire.encode_second_tier_us", us(timeOp(func() { _, _ = wire.AppendSecondTier(buf[:0], entries, model) })), len(entries))

	builder, err := broadcast.NewBuilder(coll, model, broadcast.TwoTierMode)
	if err != nil {
		return err
	}
	if w.succinct {
		if err := builder.SetEncoding(core.EncodingSuccinct); err != nil {
			return err
		}
	}
	cy, err := builder.BuildCycle(0, 0, pool, plan)
	if err != nil {
		return err
	}
	m.set("broadcast.build_cycle_us", us(timeOp(func() { _, _ = builder.BuildCycle(0, 0, pool, plan) })), 1)
	if _, err := builder.AppendEncoded(buf[:0], cy); err != nil {
		return err
	}
	m.set("broadcast.encode_us", us(timeOp(func() { _, _ = builder.AppendEncoded(buf[:0], cy) })), 1)

	d = timeOp(func() {
		for _, doc := range coll.Docs() {
			doc.Marshal()
		}
	})
	m.set("xmldoc.marshal_us_per_doc", us(d)/nd, coll.Len())

	replaySchedule(m, timeOp, in, pendingMean)
	return nil
}

// replaySchedule plans one cycle over a pending set of the size the live
// run held on average, swapping 5 % of it before each plan: from scratch
// with PlanCycle, and through a delta-maintained DemandIndex.
func replaySchedule(m metricSet, timeOp timer, in *inputs, pendingMean int) {
	if pendingMean < 20 {
		pendingMean = 20
	}
	r := rand.New(rand.NewSource(in.seed + 5_000_011))
	size := func(d xmldoc.DocID) int { return in.docs[d-1].Size() }
	nextID := int64(0)
	fresh := func(now int64) schedule.Request {
		nextID++
		qi := r.Intn(len(in.pool))
		docs := in.answers[qi]
		// Only documents the starting collection holds can be pending.
		for len(docs) > 0 && int(docs[len(docs)-1]) > in.startDocs {
			docs = docs[:len(docs)-1]
		}
		return schedule.Request{ID: nextID, Arrival: now, Docs: docs}
	}
	mk := func() []schedule.Request {
		pending := make([]schedule.Request, pendingMean)
		for i := range pending {
			pending[i] = fresh(0)
		}
		return pending
	}
	swap := pendingMean / 20

	pending := mk()
	now := int64(0)
	m.set("schedule.plan_full_us", us(timeOp(func() {
		now++
		for k := 0; k < swap; k++ {
			pending = append(pending[1:], fresh(now))
		}
		schedule.LeeLo{}.PlanCycle(pending, size, cycleCapacity, now)
	})), pendingMean)

	pending = mk()
	x := schedule.NewDemandIndex()
	x.Rebuild(pending, size, 1)
	now = 0
	m.set("schedule.plan_indexed_us", us(timeOp(func() {
		now++
		for k := 0; k < swap; k++ {
			x.Remove(pending[0].ID)
			nr := fresh(now)
			pending = append(pending[1:], nr)
			x.Apply(nr, size)
		}
		schedule.LeeLo{}.PlanIndexed(x, cycleCapacity, now)
	})), pendingMean)
}

// innerOverhead is the v2 frame's bytes around a payload (7-byte header,
// 4-byte checksum): the envelope wraps a whole inner frame, so the ratios
// are taken over payload plus this much, as internal/exp does.
const innerOverhead = 11

// replayTransport runs the captured cycles' segments through the transport
// codec: per-frame DEFLATE encode, inflate-and-verify decode, and the
// envelope-to-plain size ratio by frame type.
func replayTransport(m metricSet, timeOp timer, captured []netcast.CycleRecord) error {
	cycles := captured
	if len(cycles) > replayCycles {
		cycles = cycles[:replayCycles]
	}
	wrap := func(payload []byte) []byte {
		inner := make([]byte, 0, len(payload)+innerOverhead)
		inner = append(inner, make([]byte, 7)...)
		inner = append(inner, payload...)
		return append(inner, make([]byte, 4)...)
	}
	type class struct{ plain, wire int }
	var index, second, doc class
	var inners [][]byte
	var envs bytes.Buffer
	enc := transport.NewEncoder(true, 0)
	add := func(c *class, payload []byte) error {
		inner := wrap(payload)
		env, err := enc.Encode(transport.NoStream, inner)
		if err != nil {
			return err
		}
		c.plain += len(inner)
		c.wire += len(env)
		inners = append(inners, inner)
		envs.Write(env)
		return nil
	}
	for i := range cycles {
		if err := add(&index, cycles[i].IndexSeg); err != nil {
			return err
		}
		if cycles[i].SecondTierSeg != nil {
			if err := add(&second, cycles[i].SecondTierSeg); err != nil {
				return err
			}
		}
		for _, p := range cycles[i].Docs {
			if err := add(&doc, p); err != nil {
				return err
			}
		}
	}
	frames := float64(len(inners))
	plain := index.plain + second.plain + doc.plain
	d := timeOp(func() {
		for _, inner := range inners {
			_, _ = enc.Encode(transport.NoStream, inner)
		}
	})
	m.set("transport.encode_us_per_frame", us(d)/frames, len(inners))
	m.set("transport.encode_mb_per_s", ratio(float64(plain)/1e6, d.Seconds()), len(inners))
	stream := envs.Bytes()
	d = timeOp(func() {
		tr := transport.NewReader(bytes.NewReader(stream))
		for range inners {
			_, _ = tr.Next()
		}
	})
	m.set("transport.decode_us_per_frame", us(d)/frames, len(inners))
	m.set("transport.ratio.index", ratio(float64(index.wire), float64(index.plain)), len(cycles))
	m.set("transport.ratio.second_tier", ratio(float64(second.wire), float64(second.plain)), len(cycles))
	m.set("transport.ratio.doc", ratio(float64(doc.wire), float64(doc.plain)), len(inners))
	return nil
}

// replayJournal times the durability layer's calls on a scratch state
// directory, with the flush policy the live workload uses (Fsync off) and a
// pending set of the live run's mean size.
func replayJournal(m metricSet, timeOp timer, in *inputs, pendingMean int, tmpDir string) error {
	dir, err := os.MkdirTemp(tmpDir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := journal.Options{Dir: filepath.Join(dir, "state"), SnapshotEvery: -1}
	jn, _, err := journal.Open(opts)
	if err != nil {
		return err
	}
	remaining := func(qi int) []uint16 {
		var out []uint16
		for _, d := range in.answers[qi] {
			if int(d) <= in.startDocs {
				out = append(out, uint16(d))
			}
		}
		return out
	}
	// Fixed op counts, not timeOp: every call appends to the log, and the
	// recovery leg below should replay a log of a known size.
	const admits = 2000
	start := time.Now()
	for i := 0; i < admits; i++ {
		qi := i % len(in.pool)
		if err := jn.Admit(journal.Request{ID: int64(i + 1), Arrival: int64(i / 25), Query: in.pool[qi].String(), Remaining: remaining(qi)}); err != nil {
			return err
		}
	}
	m.set("journal.admit_us", us(time.Since(start))/admits, admits)

	// Each commit delivers one document to pendingMean requests, as a cycle
	// does; requests retire when their last document goes.
	if pendingMean < 1 {
		pendingMean = 1
	}
	const commits = 200
	left := make([][]uint16, admits)
	for i := range left {
		left[i] = remaining(i % len(in.pool))
	}
	head := 0
	start = time.Now()
	for c := 0; c < commits; c++ {
		var ds []journal.Delivery
		for k := 0; k < pendingMean && head+k < admits; k++ {
			i := head + k
			if len(left[i]) == 0 {
				continue
			}
			d := left[i][0]
			left[i] = left[i][1:]
			ds = append(ds, journal.Delivery{ID: int64(i + 1), Docs: []uint16{d}, Retired: len(left[i]) == 0})
		}
		for head < admits && len(left[head]) == 0 {
			head++
		}
		if err := jn.Commit(int64(c), ds); err != nil {
			return err
		}
	}
	m.set("journal.commit_us", us(time.Since(start))/commits, commits)

	// Recovery replays the whole log, so it is timed before the snapshot
	// leg compacts it away. Kill closes the log without a checkpoint; every
	// append already reached the OS.
	jn.Kill()
	start = time.Now()
	jn, _, err = journal.Open(opts)
	if err != nil {
		return fmt.Errorf("journal recover: %w", err)
	}
	m.set("journal.recover_ms", ms(time.Since(start)), admits+commits)
	m.set("journal.snapshot_ms", ms(timeOp(func() { _ = jn.Snapshot() })), 1)
	return jn.Close()
}
