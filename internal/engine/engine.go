// Package engine is the server-side cycle-assembly pipeline shared by the
// discrete-event simulator (internal/sim) and the networked broadcast server
// (internal/netcast). It owns the per-cycle loop of §3.4 Fig. 8 — answer
// pending queries from the Compact Index, schedule result documents into the
// cycle budget, prune and pack the air index, and encode the wire segments —
// so the two drivers cannot drift apart:
//
//   - a query's answer is what §3.1 defines it to be, the document tuples under
//     its match nodes in the unpruned CI: memoized per canonical query string,
//     read off the CI in one walk per batch of misses (core.Index.Answers),
//     and patched — not dropped — when a document is added or removed. The
//     engine never scans documents to answer a query;
//   - the builder's merged DataGuide is constructed with per-document guides
//     built in parallel (dataguide.MergeParallel via broadcast.NewBuilder);
//   - there is one way to plan and one way to prune, and no option selects
//     between ways: the demand index and the pruned view are maintained by
//     deltas across cycles and rebuilt in full when the churn they observe
//     exceeds a fixed quarter of the set. The references they are defined
//     against (Scheduler.PlanCycle, core.Index.Prune) are what tests call;
//   - wire encoding reuses pooled buffers and a per-document payload cache,
//     so steady-state cycles allocate O(1) buffers instead of O(docs).
//
// Every stage reports wall time and input/output sizes through a Probe;
// the default probe collects Metrics surfaced in netcast.ServerStats and
// sim.Result.
package engine

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/schedule"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// Config parameterises an Engine.
type Config struct {
	// Collection is the initial document set. Required.
	Collection *xmldoc.Collection
	// Model fixes on-air field widths. Zero selects the default.
	Model core.SizeModel
	// Mode selects one-tier or two-tier broadcast. Required.
	Mode broadcast.Mode
	// IndexEncoding selects the first tier's wire layout: the node-pointer
	// stream (the zero value) or the succinct balanced-parentheses form,
	// which requires TwoTierMode.
	IndexEncoding core.IndexEncoding
	// Scheduler plans cycle content. Nil selects schedule.LeeLo.
	Scheduler schedule.Scheduler
	// CycleCapacity is the document-byte budget per cycle. Required (> 0).
	CycleCapacity int
	// Probes receive pipeline telemetry, in order, after the engine's own
	// collector. Nil entries are skipped. Optional.
	Probes []Probe
	// Limits bounds the engine's memory; see Limits.
	// The zero value imposes no limits.
	Limits Limits
	// Channels selects the broadcast layout: 0 or 1 (the default) emits the
	// serial single-channel program; K > 1 splits each cycle across K
	// parallel streams sharing the aggregate bandwidth — channel 0 carries
	// the cycle head, channel directory and first tier, channels 1..K-1
	// carry second-tier stripes and documents. broadcast.Builder.SetChannels
	// states which counts are legal.
	Channels int
}

// Pending is one outstanding request as the scheduler sees it: the query (for
// index pruning), the arrival time in the driver's clock, and the result
// documents the client still lacks.
type Pending struct {
	// ID uniquely identifies the request; relative order must follow
	// submission order for deterministic tie-breaking.
	ID int64
	// Query is the request's XPath query.
	Query xpath.Path
	// Arrival is the request's arrival time in the driver's clock units
	// (byte-time in sim, cycle number in netcast).
	Arrival int64
	// Remaining are the result documents not yet delivered, sorted ascending
	// without duplicates. The engine borrows the slice for the duration of
	// AssembleCycle — no copy, no sort — so the driver must not mutate it
	// until the call returns, and may mutate it in place afterwards. The
	// scheduling code that reads it rejects an unsorted or duplicated set
	// with an error naming the request.
	Remaining []xmldoc.DocID
}

// Cycle is one assembled broadcast cycle plus the pipeline inputs it was
// planned from. The engine, the simulator and the networked server share the
// single channel-aware plan type of package broadcast.
type Cycle = broadcast.Cycle

// Encoded holds one cycle's wire segments, every one the cycle airs, in the
// order it airs them. The head, index and offset segments share one pooled
// backing buffer: callers that fully consume them may return it with
// Engine.Recycle, callers that retain them (e.g. broadcast fan-out queues)
// simply let the GC take it. Docs entries, and the on-air forms Air returns,
// point into the engine's per-document cache and are shared, immutable, and
// never recycled.
type Encoded struct {
	// Head is the cycle head (wire.CycleHead), Cycle.HeadBytes long.
	Head []byte
	// Index is the packed index segment, Cycle.IndexStreamBytes long.
	Index []byte
	// ChannelDir is the channel-directory segment, Cycle.DirBytes long:
	// empty in single-channel cycles.
	ChannelDir []byte
	// SecondTiers holds one offset list per stream that carries documents:
	// the serial stream's at K = 1 (Cycle.SecondTierBytes long), data
	// channel i+1's stripe at K > 1 (its ChannelLayout.SecondTierBytes). In
	// one-tier mode the single entry is empty: the offsets ride in the index.
	SecondTiers [][]byte
	// Docs holds one payload per scheduled document, in broadcast order
	// (Cycle.Docs order — in multichannel cycles entry i rides the channel
	// of Cycle.Docs[i]): 2 little-endian ID bytes followed by the
	// marshalled document.
	Docs [][]byte

	air [][]byte // parallel to Docs once anything is attached; see Air
	buf []byte   // pooled backing of the head, index and offset segments
}

// Air returns the on-air form cached beside Docs[i] when the cycle was
// encoded — whatever the driver last gave AttachAir for that payload, which
// the engine never looks inside — or nil when nothing is attached to it yet.
func (enc *Encoded) Air(i int) []byte {
	if enc.air == nil {
		return nil
	}
	return enc.air[i]
}

// Engine owns the cycle-assembly pipeline over a dynamic collection. It is
// not safe for concurrent use: one goroutine drives it (the simulator's run,
// the networked server's cycle loop), so resolution, collection writes and
// cycle assembly are ordered by the calls themselves.
type Engine struct {
	scheduler schedule.Scheduler
	capacity  int
	probe     probes
	collector *Collector

	builder  *broadcast.Builder
	answers  *answerCache
	payloads *payloadCache

	// view maintains the PCI incrementally across cycles (keyed on the CI
	// pointer, which the builder replaces on every collection change).
	view *core.PrunedView

	// demand maintains per-document demand aggregation across cycles by
	// pending-set deltas. changeIdx and keepIDs are per-cycle diff scratch.
	demand    *schedule.DemandIndex
	changeIdx []int
	keepIDs   map[int64]struct{}

	// reqs, distinct and seenQuery are AssembleCycleAt's pending-view
	// scratch.
	reqs      []schedule.Request
	distinct  []xpath.Path
	seenQuery map[string]struct{}

	// fp is the order-independent collection fingerprint (XOR of
	// journal.DocHash per live document), maintained incrementally so the
	// durability layer can cheaply detect collection drift across restarts.
	// fpSizes remembers each live document's size for removal.
	fp      uint64
	fpSizes map[xmldoc.DocID]int

	segPool sync.Pool // *[]byte scratch for encoded index/second-tier segments
}

// New validates the configuration and builds the engine (including the
// merged DataGuide and initial CI).
func New(cfg Config) (*Engine, error) {
	if cfg.Collection == nil || cfg.Collection.Len() == 0 {
		return nil, fmt.Errorf("engine: Config.Collection is required")
	}
	if cfg.CycleCapacity <= 0 {
		return nil, fmt.Errorf("engine: Config.CycleCapacity must be positive, got %d", cfg.CycleCapacity)
	}
	if cfg.Model == (core.SizeModel{}) {
		cfg.Model = core.DefaultSizeModel()
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = schedule.LeeLo{}
	}
	builder, err := broadcast.NewBuilder(cfg.Collection, cfg.Model, cfg.Mode)
	if err != nil {
		return nil, err
	}
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	if err := builder.SetChannels(cfg.Channels); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if cfg.IndexEncoding != core.EncodingNode {
		if err := builder.SetEncoding(cfg.IndexEncoding); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	e := &Engine{
		scheduler: cfg.Scheduler,
		capacity:  cfg.CycleCapacity,
		collector: NewCollector(),
		builder:   builder,
		answers:   newAnswerCache(cfg.Limits.MaxAnswerCacheEntries),
		payloads:  newPayloadCache(cfg.Limits.MaxPayloadCacheBytes),
		view:      core.NewPrunedView(0),
		demand:    schedule.NewDemandIndex(),
	}
	e.fpSizes = make(map[xmldoc.DocID]int, cfg.Collection.Len())
	for _, d := range cfg.Collection.Docs() {
		e.fpSizes[d.ID] = d.Size()
		e.fp ^= journal.DocHash(uint16(d.ID), d.Size())
	}
	e.probe = probes{e.collector}
	for _, p := range cfg.Probes {
		if p != nil {
			e.probe = append(e.probe, p)
		}
	}
	e.segPool.New = func() any { b := make([]byte, 0, 4096); return &b }
	return e, nil
}

// Scheduler reports the planning policy.
func (e *Engine) Scheduler() schedule.Scheduler { return e.scheduler }

// NumDocs reports the current collection size.
func (e *Engine) NumDocs() int { return e.builder.NumDocs() }

// CollectionFingerprint is the order-independent fingerprint of the live
// document collection (XOR of journal.DocHash over every document's ID and
// size), maintained incrementally across AddDocument/RemoveDocument. The
// durability layer journals it with collection events so a restarted server
// can detect that the collection drifted while it was down and re-resolve
// recovered queries instead of trusting their recorded result sets (see
// NewLedger).
func (e *Engine) CollectionFingerprint() uint64 { return e.fp }

// docIDs lists the live collection's document IDs in ascending order.
func (e *Engine) docIDs() []xmldoc.DocID {
	ids := make([]xmldoc.DocID, 0, len(e.fpSizes))
	for id := range e.fpSizes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Metrics snapshots the engine's accumulated telemetry.
func (e *Engine) Metrics() Metrics { return e.collector.Metrics() }

// Resolve answers one query: the sorted IDs of matching documents. Answers
// are memoized by canonical query string and kept current across collection
// updates; see ResolveAll.
func (e *Engine) Resolve(q xpath.Path) ([]xmldoc.DocID, error) {
	answers, err := e.ResolveAll([]xpath.Path{q})
	if err != nil {
		return nil, err
	}
	return answers[q.String()], nil
}

// ResolveAll answers a query batch, keyed by canonical query string. Cached
// answers are served from the memo; the misses are compiled into one shared
// NFA and read off the unpruned CI in a single walk (core.Index.Answers) —
// the paper's definition of an answer, at a cost independent of the number
// and size of the documents. The first miss after a collection update also
// pays the CI's lazy rebuild, as the next cycle otherwise would. The
// returned slices are shared with the cache and never written again: treat
// them as read-only.
func (e *Engine) ResolveAll(queries []xpath.Path) (map[string][]xmldoc.DocID, error) {
	out := make(map[string][]xmldoc.DocID, len(queries))
	var misses []xpath.Path
	for _, q := range queries {
		key := q.String()
		if _, dup := out[key]; dup {
			continue
		}
		if docs, ok := e.answers.get(key); ok {
			out[key] = docs
			e.probe.CacheAccess(true)
		} else {
			out[key] = nil
			misses = append(misses, q)
			e.probe.CacheAccess(false)
		}
	}
	if len(misses) == 0 {
		return out, nil
	}

	start := time.Now()
	perQuery := e.builder.CI().Answers(yfilter.New(misses))
	matched, evicted := 0, 0
	for i, q := range misses {
		key := q.String()
		out[key] = perQuery[i]
		matched += len(perQuery[i])
		evicted += e.answers.put(key, q, perQuery[i])
	}
	e.probe.StageDone(StageResolve, time.Since(start), len(misses), matched)
	if evicted > 0 {
		e.probe.CacheEvicted(EvictAnswer, evicted)
	}
	return out, nil
}

// AssembleCycle plans and lays out one broadcast cycle: the scheduler fills
// the capacity budget from the pending requests' remaining documents, and the
// CI is pruned to the distinct pending queries and packed under the engine's
// tier. start is both the cycle's start time and the scheduler's "now", in
// the driver's clock units.
//
// The engine assembles whatever pending set it is given: admission, and with
// it any cap on the pending set, is the driver's (Ledger.Admit). Every cycle
// is pruned, so its bytes depend only on its inputs.
func (e *Engine) AssembleCycle(number, start int64, pending []Pending) (*Cycle, error) {
	return e.AssembleCycleAt(number, start, start, pending)
}

// AssembleCycleAt is AssembleCycle with the scheduler's "now" decoupled
// from the cycle's start time, for drivers whose scheduling clock differs
// from their layout clock: the simulator's ClockCycles option keeps
// byte-time cycle starts while handing clock-sensitive policies (RxW) the
// cycle number netcast schedules with. Arrival values in pending must be in
// schedNow's unit.
//
// Incremental scheduling (see schedule.DemandIndex) additionally assumes
// driver-shaped pending sets across consecutive calls: a request keeps its
// ID and arrival, its Remaining set only shrinks, every Remaining is
// non-empty, and new requests are appended after surviving ones. Both
// drivers satisfy this; callers that mutate pending arbitrarily between
// cycles still get correct plans whenever a count or arrival changes.
func (e *Engine) AssembleCycleAt(number, start, schedNow int64, pending []Pending) (*Cycle, error) {
	if len(pending) == 0 {
		return nil, fmt.Errorf("engine: AssembleCycle with no pending requests")
	}

	// The pending view is built in scratch reused across cycles; only
	// queries, which Cycle.Queries keeps, is the cycle's own.
	reqs, distinct := e.reqs[:0], e.distinct[:0]
	if e.seenQuery == nil {
		e.seenQuery = make(map[string]struct{})
	}
	clear(e.seenQuery)
	for _, p := range pending {
		reqs = append(reqs, schedule.Request{ID: p.ID, Arrival: p.Arrival, Docs: p.Remaining})
		key := p.Query.String()
		if _, ok := e.seenQuery[key]; !ok {
			e.seenQuery[key] = struct{}{}
			distinct = append(distinct, p.Query)
		}
	}
	e.reqs, e.distinct = reqs, distinct
	queries := make([]xpath.Path, len(distinct))
	copy(queries, distinct)

	schedStart := time.Now()
	size := func(d xmldoc.DocID) int { return e.builder.DocByID(d).Size() }
	plan, err := e.planCycle(reqs, size, schedNow)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e.probe.StageDone(StageSchedule, time.Since(schedStart), len(reqs), len(plan))
	if len(plan) == 0 {
		return nil, fmt.Errorf("engine: scheduler %q planned an empty cycle with %d pending", e.scheduler.Name(), len(reqs))
	}

	buildStart := time.Now()
	ci := e.builder.CI()
	ciNodes := ci.NumNodes()
	cy, err := e.builder.BuildCycleWithIndex(number, start, e.prune(ci, queries), plan)
	if err != nil {
		return nil, err
	}
	e.probe.StageDone(StageBuild, time.Since(buildStart), ciNodes, cy.Index.NumNodes())
	cy.Queries = queries
	cy.NumPending = len(pending)
	for i := range cy.Channels {
		lay := &cy.Channels[i]
		e.probe.ChannelDone(lay.ID, lay.Role, int64(lay.Bytes), false)
	}
	e.probe.CycleDone()
	return cy, nil
}

// planCycle produces one cycle's document plan. It diffs the pending set
// against the persistent demand index — cheap (count, arrival) probes decide
// between applying the delta and a sharded full rebuild when churn exceeds
// schedule.DefaultScheduleChurn — then plans from the index (the scheduler's
// PlanIndexed, defined to equal its reference PlanCycle over the same pending
// set) and applies the plan's predicted deliveries, so the next diff is
// no-op-sized for well-behaved drivers. Requests that complete are kept as
// zombies until the next pending set confirms them, which lets a lossy
// delivery resurrect a request without perturbing LeeLo's summation order.
func (e *Engine) planCycle(reqs []schedule.Request, size func(xmldoc.DocID) int, now int64) ([]xmldoc.DocID, error) {
	x := e.demand
	deltaStart := time.Now()
	changed := e.changeIdx[:0]
	matched := 0
	for i := range reqs {
		if n, arr, ok := x.Peek(reqs[i].ID); ok {
			matched++
			if n != len(reqs[i].Docs) || arr != reqs[i].Arrival {
				changed = append(changed, i)
			}
		} else {
			changed = append(changed, i)
		}
	}
	e.changeIdx = changed
	removed := x.Len() - matched
	churn := len(changed) + removed
	if x.Len() == 0 || float64(churn) > schedule.DefaultScheduleChurn*float64(len(reqs)+removed) {
		// Rebuild caps its own sharding at one worker per 512 requests.
		if err := x.Rebuild(reqs, size, runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
		x.TakeEdits()
		e.probe.ScheduleDone(ScheduleFull)
	} else {
		for _, i := range changed {
			if err := x.Apply(reqs[i], size); err != nil {
				return nil, err
			}
		}
		if removed > 0 {
			if x.Zombies() == removed {
				x.ExpireZombies()
			} else {
				if e.keepIDs == nil {
					e.keepIDs = make(map[int64]struct{}, len(reqs))
				}
				clear(e.keepIDs)
				for i := range reqs {
					e.keepIDs[reqs[i].ID] = struct{}{}
				}
				x.RemoveExcept(e.keepIDs)
			}
		}
		e.probe.StageDone(StageScheduleDelta, time.Since(deltaStart), churn, x.TakeEdits())
		e.probe.ScheduleDone(ScheduleIncremental)
	}
	plan := e.scheduler.PlanIndexed(x, e.capacity, now)
	for _, d := range plan {
		x.DeliverDoc(d)
	}
	return plan, nil
}

// prune produces one cycle's PCI through the view — a delta update, or a
// full prune on the view's first cycle, after the CI was rebuilt or when query
// churn exceeds core.DefaultPruneChurn — and reports the outcome kind plus,
// for delta updates, the StagePruneDelta sub-span.
func (e *Engine) prune(ci *core.Index, queries []xpath.Path) *core.Index {
	start := time.Now()
	pci, delta, _ := e.view.Update(ci, queries) // the error is always nil
	if !delta.Full {
		e.probe.StageDone(StagePruneDelta, time.Since(start), delta.Added+delta.Removed, delta.FlippedMatches)
		e.probe.PruneDone(PruneIncremental)
		return pci
	}
	switch delta.Reason {
	case core.PruneReasonChurn, core.PruneReasonIndexChanged:
		e.probe.PruneDone(PruneFallback)
	default:
		e.probe.PruneDone(PruneFull)
	}
	return pci
}

// EncodeCycle produces every wire segment the cycle airs: the head, the
// packed index, the channel directory (K > 1) and one second-tier offset list
// per stream that carries documents (two-tier mode), cut apart at the
// cycle's own sizes, and one framed payload per scheduled document. Head,
// index and offset bytes come from a buffer pool; document payloads are
// cached across cycles, each with the on-air form its driver attached, so
// rebroadcasting a document costs no allocation. See Encoded for the buffer
// ownership rules.
func (e *Engine) EncodeCycle(c *Cycle) (_ *Encoded, err error) {
	start := time.Now()
	bufp := e.segPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	// Every error return must hand the pooled buffer back; buf may have been
	// regrown by the appends, so re-point bufp at the latest backing.
	defer func() {
		if err != nil {
			*bufp = buf[:0]
			e.segPool.Put(bufp)
		}
	}()
	if buf, err = c.Head.Append(buf); err != nil {
		return nil, fmt.Errorf("engine: encode cycle head: %w", err)
	}
	if buf, err = e.builder.AppendEncoded(buf, c); err != nil {
		return nil, err
	}
	if want := c.HeadBytes + c.IndexStreamBytes() + c.DirBytes + c.SecondTierBytes; len(buf) != want {
		return nil, fmt.Errorf("engine: cycle %d encodes to %d bytes, its sizes sum to %d", c.Number, len(buf), want)
	}
	enc := &Encoded{buf: buf}
	off := 0
	cut := func(n int) []byte {
		seg := buf[off : off+n : off+n]
		off += n
		return seg
	}
	enc.Head = cut(c.HeadBytes)
	enc.Index = cut(c.IndexStreamBytes())
	enc.ChannelDir = cut(c.DirBytes)
	if len(c.Channels) == 0 {
		enc.SecondTiers = [][]byte{cut(c.SecondTierBytes)}
	} else {
		enc.SecondTiers = make([][]byte, len(c.Channels)-1)
		for i := range enc.SecondTiers {
			enc.SecondTiers[i] = cut(c.Channels[i+1].SecondTierBytes)
		}
	}
	segments := 3 + len(enc.SecondTiers) + len(c.Docs)
	total := len(buf)
	enc.Docs = make([][]byte, 0, len(c.Docs))
	evicted := 0
	for i, p := range c.Docs {
		var payload []byte
		if en := e.payloads.get(p.ID); en != nil {
			payload = en.payload
			if en.air != nil {
				// Allocated only once a driver has attached something, so an
				// engine nobody attaches to pays nothing per cycle for the slot.
				if enc.air == nil {
					enc.air = make([][]byte, len(c.Docs))
				}
				enc.air[i] = en.air
			}
		} else {
			doc := e.builder.DocByID(p.ID)
			if doc == nil {
				return nil, fmt.Errorf("engine: document %d scheduled but not in collection", p.ID)
			}
			payload = make([]byte, 2, 2+doc.Size())
			binary.LittleEndian.PutUint16(payload, uint16(p.ID))
			payload = doc.AppendMarshal(payload)
			evicted += e.payloads.put(p.ID, payload)
		}
		enc.Docs = append(enc.Docs, payload)
		total += len(payload)
	}
	e.probe.StageDone(StageEncode, time.Since(start), segments, total)
	if evicted > 0 {
		e.probe.CacheEvicted(EvictPayload, evicted)
	}
	return enc, nil
}

// AttachAir caches air, the driver's on-air form of enc.Docs[i], beside that
// payload: later EncodeCycle calls hand it back through Encoded.Air for as
// long as the payload itself stays cached — it counts against
// Limits.MaxPayloadCacheBytes, is evicted with the payload and is dropped by
// RemoveDocument. The call does nothing when the payload is no longer the
// cache's own (evicted, removed, or removed and re-added since enc was
// encoded). air must not be written afterwards.
func (e *Engine) AttachAir(enc *Encoded, i int, air []byte) {
	if evicted := e.payloads.attach(enc.Docs[i], air); evicted > 0 {
		e.probe.CacheEvicted(EvictPayload, evicted)
	}
}

// Recycle returns an Encoded's pooled buffer for reuse. Only call it when the
// head, index and offset segment slices are fully consumed; the Docs payloads
// and their on-air forms are cache entries and remain valid.
func (e *Engine) Recycle(enc *Encoded) {
	if enc == nil || enc.buf == nil {
		return
	}
	buf := enc.buf
	enc.buf, enc.Head, enc.Index, enc.ChannelDir, enc.SecondTiers = nil, nil, nil, nil, nil
	e.segPool.Put(&buf)
}

// AddDocument admits a new document to the live collection; it becomes
// visible to queries and schedulable from the next cycle. Cached answers are
// patched, not dropped: one NFA pass over the document finds the cached
// queries it matches and its ID is inserted into a fresh copy of each of
// their answers (slices already handed out by Resolve stay as they were).
// Every entry stays cached and keeps its LRU position.
func (e *Engine) AddDocument(d *xmldoc.Document) error {
	if err := e.builder.AddDocument(d); err != nil {
		return err
	}
	e.fp ^= journal.DocHash(uint16(d.ID), d.Size())
	e.fpSizes[d.ID] = d.Size()
	e.probe.CacheInvalidated()

	entries := e.answers.entries()
	if len(entries) == 0 {
		return nil
	}
	queries := make([]xpath.Path, len(entries))
	for i, en := range entries {
		queries[i] = en.query
	}
	for _, qi := range yfilter.New(queries).MatchDocument(d) {
		en := entries[qi]
		en.docs = xmldoc.InsertID(slices.Clone(en.docs), d.ID)
	}
	return nil
}

// RemoveDocument retires a document from the live collection and drops its
// payload-cache entry. Cached answers are patched, not dropped: every answer
// that contains the ID (a binary search per entry) is replaced by a copy
// without it, and one the removal empties stays cached as empty.
func (e *Engine) RemoveDocument(id xmldoc.DocID) error {
	if err := e.builder.RemoveDocument(id); err != nil {
		return err
	}
	if sz, ok := e.fpSizes[id]; ok {
		e.fp ^= journal.DocHash(uint16(id), sz)
		delete(e.fpSizes, id)
	}
	e.probe.CacheInvalidated()
	e.payloads.remove(id)

	for _, en := range e.answers.entries() {
		if xmldoc.HasID(en.docs, id) {
			en.docs = xmldoc.RemoveID(slices.Clone(en.docs), id)
		}
	}
	// Purge the doc from the demand index the same way a delivery would:
	// requesters stop missing it, and requests it completed become zombies
	// until the drivers' pending sets confirm.
	e.demand.DeliverDoc(id)
	return nil
}
