// Package engine is the server-side cycle-assembly pipeline shared by the
// discrete-event simulator (internal/sim) and the networked broadcast server
// (internal/netcast). It owns the per-cycle loop of §3.4 Fig. 8 — answer
// pending queries from the Compact Index, schedule result documents into the
// cycle budget, prune and pack the air index, and frame the cycle exactly as
// it airs — so the two drivers cannot drift apart:
//
//   - a query's answer is what §3.1 defines it to be, the document tuples under
//     its match nodes in the unpruned CI: memoized per canonical query string,
//     read on a miss with the client's own navigator (core.Navigator.Lookup),
//     and patched — not dropped — when a document is added or removed. The
//     engine never scans documents to answer a query;
//   - the builder's merged DataGuide is constructed with per-document guides
//     built in parallel (dataguide.MergeParallel via broadcast.NewBuilder);
//   - there is one way to plan and one way to prune, and no option selects
//     between ways: the scheduler plans from the demand index the Ledger
//     keeps by the same deltas that change its pending set, and the pruned
//     view follows the pending queries by deltas, re-pruning in full when
//     their churn exceeds a fixed quarter of the set. The references they are
//     defined against (Scheduler.PlanCycle, core.Index.Prune) are what tests
//     call;
//   - framing reuses pooled buffers and a per-document cache of frames (and,
//     on a compressing engine, their transport envelopes), so steady-state
//     cycles allocate O(1) buffers instead of O(docs) and deflate no
//     document twice.
//
// Every stage reports wall time and input/output sizes through a Probe;
// the default probe collects Metrics surfaced in netcast.ServerStats and
// sim.Result.
package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/netcast/transport"
	"repro/internal/schedule"
	"repro/internal/wire"
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
	// Probe receives pipeline telemetry after the engine's own collector.
	// Optional.
	Probe Probe
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
	// Compress wraps every frame the engine airs in the transport envelope
	// (per-frame DEFLATE; see package transport), so that Encoded.Frames are
	// what a compressing downlink sends. broadcast.CheckCompress states the
	// channel counts it allows.
	Compress bool
}

// Pending is a copy of one outstanding request, for inspection
// (Ledger.Pending): the ledger keeps its requests by class.
type Pending struct {
	ID    int64 // assigned in admission order
	Query xpath.Path
	// Arrival is the request's arrival time in the driver's clock: byte-time
	// in sim, the admission cycle in netcast and in a journaled Ledger.
	Arrival int64
	// Remaining are the result documents not yet delivered, sorted ascending
	// without duplicates.
	Remaining []xmldoc.DocID
}

// Cycle is one assembled broadcast cycle plus the pipeline inputs it was
// planned from. The engine, the simulator and the networked server share the
// single channel-aware plan type of package broadcast.
type Cycle = broadcast.Cycle

// Encoded is one cycle's air program: every frame the cycle airs, per
// channel and in the order the channel airs it, each in its wire form — the
// frame's header, payload and CRC32C (wire.AppendFrame), or on a compressing
// engine the transport envelope around them. A driver puts Frames[c] on
// channel c as it is; the frames' lengths are the cycle's bytes on air.
//
// The head, index, directory, offset and channel-head frames share one
// pooled backing buffer: callers that fully consume them may return it with
// Engine.Recycle, callers that retain them (e.g. broadcast fan-out queues)
// simply let the GC take it. Document frames come out of the engine's
// per-document cache and are shared, immutable, and never recycled.
type Encoded struct {
	// Frames holds one list per channel (one at K = 1). Channel 0 airs the
	// cycle head, then the index, and at K = 1 the second tier and the
	// documents after them; at K > 1 it airs the channel directory between
	// head and index, data channel c its second-tier stripe and the
	// documents Cycle.Docs places on it, in Cycle.Docs order, and every
	// channel opens with its channel head. An empty second tier (one-tier
	// mode) does not air.
	Frames [][][]byte

	buf []byte // pooled backing of every frame but the documents'
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
	answers  *lru[string, *answerEntry]
	payloads *lru[xmldoc.DocID, *payloadEntry]

	// view maintains the PCI incrementally across cycles (keyed on the CI
	// pointer, which the builder replaces on every collection change).
	view *core.PrunedView

	// fp is the order-independent collection fingerprint (XOR of
	// journal.DocHash per live document), maintained incrementally so the
	// durability layer can cheaply detect collection drift across restarts.
	// fpSizes remembers each live document's size for removal.
	fp      uint64
	fpSizes map[xmldoc.DocID]int

	// segs is EncodeCycle's scratch for the cycle's segments before they are
	// framed; framePool recycles the frames' backing buffers. env builds the
	// transport envelopes; nil unless Config.Compress.
	segs      []byte
	framePool sync.Pool // *[]byte
	env       *transport.Encoder
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
	if err := broadcast.CheckCompress(cfg.Channels, cfg.Compress); err != nil {
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
		answers:   newLRU[string, *answerEntry](cfg.Limits.MaxAnswerCacheEntries),
		payloads:  newLRU[xmldoc.DocID, *payloadEntry](cfg.Limits.MaxPayloadCacheBytes),
		view:      core.NewPrunedView(0),
	}
	e.fpSizes = make(map[xmldoc.DocID]int, cfg.Collection.Len())
	for _, d := range cfg.Collection.Docs() {
		e.fpSizes[d.ID] = d.Size()
		e.fp ^= journal.DocHash(uint16(d.ID), d.Size())
	}
	e.probe = probes{e.collector}
	if cfg.Probe != nil {
		e.probe = append(e.probe, cfg.Probe)
	}
	e.framePool.New = func() any { b := make([]byte, 0, 4096); return &b }
	if cfg.Compress {
		e.env = transport.NewEncoder(true, 0)
	}
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

// Resolve answers one query: the sorted IDs of the documents that match it,
// the tuples under its match nodes in the unpruned CI (§3.1). Answers are
// memoized by canonical query string and kept current across collection
// updates. A miss reads the CI as a client reads its air index, with the
// query's core.Navigator, at a cost independent of the number and size of
// the documents; the first miss after a collection update also pays the CI's
// lazy rebuild, as the next cycle otherwise would. The returned slice is
// shared with the cache and never written again: treat it as read-only.
func (e *Engine) Resolve(q xpath.Path) []xmldoc.DocID { return e.resolve(q, q.String()) }

// resolve is Resolve for a caller that holds the query's canonical string,
// key.
func (e *Engine) resolve(q xpath.Path, key string) []xmldoc.DocID {
	if en := e.answers.get(key); en != nil {
		e.probe.CacheAccess(true)
		return en.docs
	}
	e.probe.CacheAccess(false)
	start := time.Now()
	docs := core.NewNavigator(q).Lookup(e.builder.CI()).Docs
	e.collector.m.AnswerEvictions += int64(e.answers.put(&answerEntry{key: key, query: q, docs: docs}))
	e.probe.StageDone(StageResolve, time.Since(start), 1, len(docs))
	return docs
}

// assembleCycle plans and lays out one broadcast cycle: the scheduler fills
// the capacity budget from the demand index x, and the CI is pruned to the
// pending queries and packed under the engine's tier. start is both the
// cycle's start time and the scheduler's "now", in the driver's clock units.
// Its one caller is Ledger.Air, which keeps x and hands over one query per
// class of pending requests.
//
// The engine assembles whatever is pending: admission, and with it any cap
// on the pending set, is the ledger's (Ledger.Admit). Every cycle is pruned,
// so its bytes depend only on its inputs.
func (e *Engine) assembleCycle(number, start int64, x *schedule.DemandIndex, queries []xpath.Path) (*Cycle, error) {
	schedStart := time.Now()
	plan := e.scheduler.PlanIndexed(x, e.capacity, start)
	e.probe.StageDone(StageSchedule, time.Since(schedStart), x.Len(), len(plan))
	e.probe.ScheduleDone(ScheduleIncremental)
	if len(plan) == 0 {
		return nil, fmt.Errorf("engine: scheduler %q planned an empty cycle with %d pending", e.scheduler.Name(), x.Len())
	}

	buildStart := time.Now()
	ci := e.builder.CI()
	ciNodes := ci.NumNodes()
	cy, err := e.builder.BuildCycleWithIndex(number, start, e.prune(ci, queries), plan)
	if err != nil {
		return nil, err
	}
	e.probe.StageDone(StageBuild, time.Since(buildStart), ciNodes, cy.Index.NumNodes())
	for i := range cy.Channels {
		e.collector.channelAired(&cy.Channels[i])
	}
	e.probe.CycleDone()
	return cy, nil
}

// docSize is a live document's size, the demand index's size function.
func (e *Engine) docSize(d xmldoc.DocID) int { return e.builder.DocByID(d).Size() }

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

// EncodeCycle frames everything the cycle airs — the head, the packed
// index, the channel directory (K > 1), one second-tier offset list per
// stream that carries documents (two-tier mode), the channel heads (K > 1)
// and one frame per scheduled document — in air order per channel, each in
// its wire form (see Encoded). The segments are encoded into scratch the
// engine reuses, cut at the cycle's own sizes and framed into a pooled
// buffer; a document is framed, and on a compressing engine deflated, once
// per stay in the payload cache, so rebroadcasting it costs no allocation
// and no DEFLATE pass.
func (e *Engine) EncodeCycle(c *Cycle) (_ *Encoded, err error) {
	start := time.Now()
	segs, err := c.Head.Append(e.segs[:0])
	if err != nil {
		return nil, fmt.Errorf("engine: encode cycle head: %w", err)
	}
	if segs, err = e.builder.AppendEncoded(segs, c); err != nil {
		return nil, err
	}
	e.segs = segs
	if want := c.HeadBytes + c.IndexStreamBytes() + c.DirBytes + c.SecondTierBytes; len(segs) != want {
		return nil, fmt.Errorf("engine: cycle %d encodes to %d bytes, its sizes sum to %d", c.Number, len(segs), want)
	}
	// segs holds the head, the index, the directory and the offset lists in
	// stream order.
	cut := func(n int) []byte {
		seg := segs[:n]
		segs = segs[n:]
		return seg
	}
	head, index, dir := cut(c.HeadBytes), cut(c.IndexStreamBytes()), cut(c.DirBytes)
	k := c.ChannelCount()

	// The frames other than documents go into one pooled buffer grown once
	// to hold them all — at most a channel head and a second tier per
	// channel besides head, directory and index — so none moves.
	bufp := e.framePool.Get().(*[]byte)
	buf := slices.Grow((*bufp)[:0], c.HeadBytes+c.IndexStreamBytes()+c.DirBytes+c.SecondTierBytes+
		k*wire.ChannelHeadLen+(2*k+3)*(wire.FrameHeaderLen+wire.FrameTrailerLen))
	// Every error return must hand the pooled buffer back.
	defer func() {
		if err != nil {
			*bufp = buf[:0]
			e.framePool.Put(bufp)
		}
	}()
	all := make([][]byte, 0, 2*k+3+len(c.Docs))
	total, evicted := 0, 0
	onAir := func(fr []byte) {
		all = append(all, fr)
		total += len(fr)
	}
	// frame frames one segment into buf and airs it; after a failure it
	// does nothing, and err holds the failure.
	frame := func(t wire.FrameType, payload []byte) {
		if err != nil {
			return
		}
		from := len(buf)
		if buf, err = wire.AppendFrame(buf, t, payload); err != nil {
			return
		}
		fr := buf[from:len(buf):len(buf)]
		if e.env != nil {
			if fr, err = e.env.Encode(transport.NoStream, fr); err != nil {
				return
			}
		}
		onAir(fr)
	}
	enc := &Encoded{Frames: make([][][]byte, k)}
	for ch := 0; ch < k; ch++ {
		from := len(all)
		if k > 1 {
			h := wire.ChannelHead{Number: uint32(c.Number), Channel: uint8(ch), Channels: uint8(k),
				Role: wire.ChannelRoleIndex, NumDocs: uint16(len(c.Docs))}
			if ch > 0 {
				h.Role, h.NumDocs = wire.ChannelRoleData, uint16(len(c.Channels[ch].Docs))
			}
			var hb [wire.ChannelHeadLen]byte
			frame(wire.FrameChannelHead, h.Append(hb[:0]))
		}
		if ch == 0 {
			frame(wire.FrameCycleHead, head)
			if k > 1 {
				frame(wire.FrameChannelDir, dir)
			}
			frame(wire.FrameIndex, index)
		}
		if ch > 0 || k == 1 {
			n := c.SecondTierBytes
			if k > 1 {
				n = c.Channels[ch].SecondTierBytes
			}
			if st := cut(n); len(st) > 0 {
				frame(wire.FrameSecondTier, st)
			}
			for _, p := range c.Docs {
				if p.Channel != ch || err != nil {
					continue
				}
				en := e.payloads.get(p.ID)
				if en == nil {
					if en, err = e.docEntry(p.ID); err != nil {
						break
					}
					evicted += e.payloads.put(en)
				}
				onAir(en.onAir())
			}
		}
		enc.Frames[ch] = all[from:len(all):len(all)]
	}
	if err != nil {
		return nil, err
	}
	enc.buf = buf
	e.probe.StageDone(StageEncode, time.Since(start), len(all), total)
	e.collector.m.PayloadEvictions += int64(evicted)
	return enc, nil
}

// docEntry frames a document — its payload marshalled straight into the
// frame — and on a compressing engine builds the envelope it airs in: the
// entry the payload cache keeps for as long as the document stays cached.
func (e *Engine) docEntry(id xmldoc.DocID) (*payloadEntry, error) {
	doc := e.builder.DocByID(id)
	if doc == nil {
		return nil, fmt.Errorf("engine: document %d scheduled but not in collection", id)
	}
	fr, start := wire.StartFrame(make([]byte, 0, wire.FrameHeaderLen+2+doc.Size()+wire.FrameTrailerLen))
	fr = doc.AppendMarshal(binary.LittleEndian.AppendUint16(fr, uint16(id)))
	fr, err := wire.FinishFrame(fr, start, wire.FrameDoc)
	if err != nil {
		return nil, fmt.Errorf("engine: document %d: %w", id, err)
	}
	en := &payloadEntry{id: id, frame: fr}
	if e.env != nil {
		if en.env, err = e.env.Encode(transport.NoStream, fr); err != nil {
			return nil, fmt.Errorf("engine: document %d: %w", id, err)
		}
	}
	return en, nil
}

// TransportStats reports a compressing engine's envelope counters: every
// frame it wrapped and how many of them shipped deflated. Zero when the
// engine does not compress.
func (e *Engine) TransportStats() transport.EncoderStats {
	if e.env == nil {
		return transport.EncoderStats{}
	}
	return e.env.Stats()
}

// Recycle returns an Encoded's pooled buffer for reuse. Only call it when its
// frames are fully consumed; the document frames are cache entries and stay
// valid, the others do not.
func (e *Engine) Recycle(enc *Encoded) {
	if enc == nil || enc.buf == nil {
		return
	}
	buf := enc.buf[:0]
	enc.buf, enc.Frames = nil, nil
	e.framePool.Put(&buf)
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
	return nil
}
