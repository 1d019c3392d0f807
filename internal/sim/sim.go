// Package sim is the discrete-event simulator of the on-demand broadcast
// system (§4): a server that accumulates XPath requests, schedules result
// documents into fixed-capacity cycles and broadcasts an air index ahead of
// them; and clients that follow the one-tier or two-tier access protocol,
// accounting tuning time and access time in bytes at constant bandwidth,
// exactly as the paper measures them.
//
// An index read's cost depends only on the cycle and the query (§3.4), so
// the clients of one query share one navigator and the index is navigated
// once per (cycle, query), however many of them read it.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schedule"
	"repro/internal/succinct"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// ClockUnit selects the clock the scheduler sees (request arrivals and the
// planning "now").
type ClockUnit int

const (
	// ClockBytes passes byte-time arrivals and the cycle-start byte-time,
	// the simulator's native clock. Default.
	ClockBytes ClockUnit = iota
	// ClockCycles passes admission cycle numbers and the current cycle
	// number, the networked server's clock.
	ClockCycles
)

// ClientRequest is one query submitted by a mobile client.
type ClientRequest struct {
	// Query is the client's XPath request.
	Query xpath.Path
	// Arrival is the byte-time the request reaches the server uplink.
	Arrival int64
}

// Config parameterises one simulation run.
type Config struct {
	// Collection is the server's document set. Required.
	Collection *xmldoc.Collection
	// Model fixes on-air field widths. Zero value selects the default.
	Model core.SizeModel
	// Mode selects one-tier or two-tier broadcast. Required.
	Mode broadcast.Mode
	// IndexEncoding selects the first tier's wire layout: the node-pointer
	// stream (the zero value) or the succinct balanced-parentheses form.
	// Succinct requires TwoTierMode; clients then navigate the encoded tier
	// in place with a succinct.Cursor instead of materializing the index.
	IndexEncoding core.IndexEncoding
	// Scheduler plans cycle content. Nil selects schedule.LeeLo.
	Scheduler schedule.Scheduler
	// CycleCapacity is the document-byte budget per cycle (the paper's
	// ~100 KB average cycle length). Required (> 0).
	CycleCapacity int
	// Requests is the client workload. Required (non-empty).
	Requests []ClientRequest
	// WholeTierRead makes clients download whole index tiers instead of
	// only the packets their navigation touches; this reproduces the
	// analytic model of Eq. 1 (TT = L_I + n·L_O). Default false
	// (packet-granular accounting).
	WholeTierRead bool
	// LossProb injects wireless reception failures: each document download
	// and each index read independently fails with this probability. A
	// failed document stays in the client's remaining set (the server's
	// pending view follows, so it is rescheduled); a failed first-tier read
	// is retried next cycle. Zero disables loss. Must be in [0, 1).
	LossProb float64
	// LossSeed seeds the loss process deterministically.
	LossSeed int64
	// MaxCycles aborts runaway simulations. Default 100000.
	MaxCycles int
	// Probe receives engine pipeline telemetry in addition to the built-in
	// collector that fills Result.Engine. Optional.
	Probe engine.Probe
	// Limits bounds engine memory (see engine.Limits); evictions surface in
	// Result.Engine. The zero value imposes no limits. The simulator admits
	// every configured request: there is no pending cap to shed against.
	Limits engine.Limits
	// ScheduleClock selects the clock unit the scheduler sees. The default
	// ClockBytes hands it the simulator's native byte-time; ClockCycles
	// hands it admission cycle numbers and the current cycle number,
	// matching the networked server's clock so clock-sensitive policies
	// (RxW) score identically across the two drivers. Byte-time cycle
	// layout and client accounting are unaffected.
	ScheduleClock ClockUnit
	// CycleSink, if non-nil, receives every assembled cycle together with
	// its encoded wire segments, exactly as the networked server broadcasts
	// them. Encoding is skipped when nil, so plain simulations pay no wire
	// cost. The Encoded's segments are only valid during the call.
	CycleSink func(*engine.Cycle, *engine.Encoded)
	// Channels splits each cycle across K parallel broadcast channels
	// sharing the aggregate bandwidth (each channel airs one byte per K
	// byte-ticks): channel 0 carries the head, channel directory and first
	// tier, channels 1..K-1 carry second-tier stripes and documents, and
	// clients hop channels with a single tuner. 0 or 1 (the default) is the
	// serial single-channel program. Requires TwoTierMode when > 1.
	Channels int
	// Compress runs the engine's compressing transport (engine.Config.Compress):
	// every cycle is framed and deflated exactly as a compressing netcast
	// server airs it, and its layout is read off those frames' lengths, so
	// cycles occupy less air and the clock — and therefore access time at
	// fixed bandwidth — advances by the bytes the server sends. Compressed
	// frames are atomic: a client reads whole segments, so index tuning
	// counts the whole compressed tier rather than navigated packets, and a
	// lost reception (LossProb) costs the whole envelope (see
	// broadcast.CheckCompress for the channel rule).
	Compress bool
}

func (c *Config) applyDefaults() {
	if c.Model == (core.SizeModel{}) {
		c.Model = core.DefaultSizeModel()
	}
	if c.Scheduler == nil {
		c.Scheduler = schedule.LeeLo{}
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 100000
	}
}

func (c *Config) validate() error {
	if c.Collection == nil || c.Collection.Len() == 0 {
		return fmt.Errorf("sim: Config.Collection is required")
	}
	if c.Mode != broadcast.OneTierMode && c.Mode != broadcast.TwoTierMode {
		return fmt.Errorf("sim: Config.Mode is required")
	}
	if c.CycleCapacity <= 0 {
		return fmt.Errorf("sim: Config.CycleCapacity must be positive, got %d", c.CycleCapacity)
	}
	if len(c.Requests) == 0 {
		return fmt.Errorf("sim: Config.Requests is required")
	}
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("sim: Config.LossProb must be in [0, 1), got %g", c.LossProb)
	}
	return c.Model.Validate()
}

// ClientStats records one client's outcome.
type ClientStats struct {
	// Query is the client's request.
	Query xpath.Path
	// Arrival and Completed are absolute byte-times; Completed is when the
	// last result document finished downloading.
	Arrival, Completed int64
	// AccessBytes is Completed − Arrival (the paper's access time).
	AccessBytes int64
	// IndexTuningBytes is the tuning time spent on index lookup: first-tier
	// navigation plus per-cycle second-tier reads under two-tier, or
	// per-cycle index navigation under one-tier.
	IndexTuningBytes int64
	// DocTuningBytes is the tuning time spent downloading result documents
	// (independent of the indexing method, per §4.1).
	DocTuningBytes int64
	// CyclesListened is n in Eq. 1: the cycles the client attended.
	CyclesListened int
	// EavesdropDocs counts result documents caught before admission: the
	// client synced on an index-channel repetition of its arrival cycle and
	// received documents that earlier demand had already put on air
	// (multichannel runs only).
	EavesdropDocs int
	// Docs is the query's result set.
	Docs []xmldoc.DocID
}

// CycleStats records one broadcast cycle's layout.
type CycleStats struct {
	Number          int64
	Start           int64
	HeadBytes       int
	IndexBytes      int
	SecondTierBytes int
	// DirBytes is the channel-directory size; zero on single-channel runs.
	DirBytes int
	DocBytes int
	// DurationBytes is the cycle's on-air length in aggregate byte-time
	// (TotalBytes on one channel, K × the heaviest channel otherwise).
	DurationBytes int64
	// ChannelBytes is the per-channel payload; nil on single-channel runs.
	ChannelBytes []int
	// IndexRepetitions is how many complete [head][directory][first tier]
	// copies the index channel aired this cycle (1 on single-channel runs).
	IndexRepetitions int
	NumDocs          int
	IndexNodes       int
	Pending          int
}

// Result is the outcome of a run.
type Result struct {
	// Clients holds per-client statistics in request order.
	Clients []ClientStats
	// Cycles holds per-cycle statistics.
	Cycles []CycleStats
	// Mode echoes the configuration.
	Mode broadcast.Mode
	// Engine is the assembly pipeline's telemetry: per-stage wall time and
	// sizes, answer-cache hit rate and cycle counters.
	Engine engine.Metrics
}

// client is the in-flight state of one request. Two outstanding-document sets
// evolve side by side, each the client's own sorted, duplicate-free slice:
// remaining is the server's belief (retired by the same receivable commitment
// the networked server applies, so scheduling matches the netcast driver cycle
// for cycle; lent to the engine while a cycle assembles), while needed is what
// the client has yet to download. On multichannel runs a client that synced
// mid-cycle on an index repetition can catch documents beyond the server's
// conservative commitment, so needed can drain ahead of remaining; the server
// keeps a request active until its belief drains, exactly as the networked
// server does for a subscriber it cannot observe. read is shared with every
// other client of the same query.
type client struct {
	id        int64
	req       ClientRequest
	read      *queryRead
	docs      []xmldoc.DocID // full result set, known after first index read
	remaining []xmldoc.DocID
	needed    []xmldoc.DocID
	admit     int64 // cycle number that first covered the request
	knowsDocs bool  // two-tier: first-tier already read
	stats     ClientStats
	done      bool // server belief drained; request leaves the pending set
}

// receive records one successful document download.
func (cl *client) receive(id xmldoc.DocID, end int64) {
	cl.needed = xmldoc.RemoveID(cl.needed, id)
	if end > cl.stats.Completed {
		cl.stats.Completed = end
	}
	if len(cl.needed) == 0 {
		cl.stats.AccessBytes = cl.stats.Completed - cl.stats.Arrival
	}
}

// Run executes the simulation until every request completes.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	eng, err := engine.New(engine.Config{
		Collection:    cfg.Collection,
		Model:         cfg.Model,
		Mode:          cfg.Mode,
		IndexEncoding: cfg.IndexEncoding,
		Scheduler:     cfg.Scheduler,
		CycleCapacity: cfg.CycleCapacity,
		Probes:        []engine.Probe{cfg.Probe},
		Limits:        cfg.Limits,
		Channels:      cfg.Channels,
		Compress:      cfg.Compress,
	})
	if err != nil {
		return nil, err
	}

	// Resolve every distinct query's answer once, server-side, through the
	// engine.
	answers, err := resolveAnswers(eng, cfg.Requests)
	if err != nil {
		return nil, err
	}

	// Clients sorted by arrival; original order retained for reporting.
	// Clients of one query share its navigator and index read.
	clients := make([]*client, len(cfg.Requests))
	reads := make(map[string]*queryRead, len(answers))
	for i, r := range cfg.Requests {
		key := r.Query.String()
		docs := answers[key]
		read := reads[key]
		if read == nil {
			read = &queryRead{nav: core.NewNavigator(r.Query), cycle: -1}
			reads[key] = read
		}
		clients[i] = &client{
			id:        int64(i),
			req:       r,
			read:      read,
			docs:      docs,
			remaining: slices.Clone(docs), // answers are sorted, and shared
			needed:    slices.Clone(docs),
			stats:     ClientStats{Query: r.Query, Arrival: r.Arrival, Docs: docs},
		}
	}
	byArrival := append([]*client(nil), clients...)
	sort.SliceStable(byArrival, func(i, j int) bool { return byArrival[i].req.Arrival < byArrival[j].req.Arrival })

	res := &Result{Mode: cfg.Mode, Clients: make([]ClientStats, 0, len(clients))}
	sr := &succinctReader{}
	var loss *lossProcess
	if cfg.LossProb > 0 {
		loss = &lossProcess{p: cfg.LossProb, rng: rand.New(rand.NewSource(cfg.LossSeed))}
	}
	var (
		now      int64
		admitted int // prefix of byArrival already active
		// active and pending, reused across cycles, never outgrow the
		// clients, so they are sized once.
		active    = make([]*client, 0, len(clients))
		pending   = make([]engine.Pending, 0, len(clients))
		cycleNum  int64
		completed int
	)
	for completed < len(clients) {
		if cycleNum >= int64(cfg.MaxCycles) {
			return nil, fmt.Errorf("sim: exceeded MaxCycles=%d with %d clients outstanding", cfg.MaxCycles, len(clients)-completed)
		}
		// Admit arrivals; if idle, jump to the next arrival.
		if len(active) == 0 && admitted < len(byArrival) {
			if t := byArrival[admitted].req.Arrival; t > now {
				now = t
			}
		}
		for admitted < len(byArrival) && byArrival[admitted].req.Arrival <= now {
			byArrival[admitted].admit = cycleNum
			active = append(active, byArrival[admitted])
			admitted++
		}
		if len(active) == 0 {
			return nil, fmt.Errorf("sim: no active clients but %d incomplete", len(clients)-completed)
		}

		// Server: hand the pending view to the shared assembly engine. The
		// scheduler's clock follows cfg.ScheduleClock; cycle layout stays
		// in byte-time regardless.
		schedNow := now
		pending = pending[:0]
		for _, cl := range active {
			arrival := cl.req.Arrival
			if cfg.ScheduleClock == ClockCycles {
				arrival = cl.admit
			}
			pending = append(pending, engine.Pending{ID: cl.id, Query: cl.req.Query, Arrival: arrival, Remaining: cl.remaining})
		}
		if cfg.ScheduleClock == ClockCycles {
			schedNow = cycleNum
		}
		ecy, err := eng.AssembleCycleAt(cycleNum, now, schedNow, pending)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if cfg.IndexEncoding == core.EncodingSuccinct && !cfg.WholeTierRead {
			if err := sr.load(ecy); err != nil {
				return nil, err
			}
		}
		var air *cycleAir
		if cfg.Compress || cfg.CycleSink != nil {
			enc, err := eng.EncodeCycle(ecy)
			if err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
			if cfg.Compress {
				air = newCycleAir(ecy, enc)
			}
			if cfg.CycleSink != nil {
				cfg.CycleSink(ecy, enc)
			}
			eng.Recycle(enc)
		}
		cy := ecy
		st := CycleStats{
			Number:          cy.Number,
			Start:           cy.Start,
			HeadBytes:       cy.HeadBytes,
			IndexBytes:      cy.IndexBytes,
			SecondTierBytes: cy.SecondTierBytes,
			DirBytes:        cy.DirBytes,
			DocBytes:        cy.DocBytes,
			DurationBytes:   cy.Duration(),
			NumDocs:         len(cy.Docs),
			IndexNodes:      cy.Index.NumNodes(),
			Pending:         len(pending),
		}
		st.IndexRepetitions = cy.IndexRepetitions()
		if air != nil {
			// A compressed cycle occupies its transport-envelope total on
			// air; the clock below advances by the same amount.
			st.DurationBytes = air.total
		}
		for i := range cy.Channels {
			st.ChannelBytes = append(st.ChannelBytes, cy.Channels[i].Bytes)
		}
		res.Cycles = append(res.Cycles, st)

		// Clients: attend the cycle.
		stillActive := active[:0]
		for _, cl := range active {
			attendCycle(cl, cy, cfg, loss, sr, air)
			if cl.done {
				completed++
			} else {
				stillActive = append(stillActive, cl)
			}
		}
		active = stillActive

		// Clients whose requests arrive while this cycle is on air eavesdrop
		// on the index channel: they sync at the next index repetition and
		// may catch documents already airing for earlier requests, before the
		// server has even admitted them. (Multichannel only, so never on a
		// compressed run.)
		for i := admitted; i < len(byArrival); i++ {
			if byArrival[i].req.Arrival >= cy.End() {
				break
			}
			eavesdropCycle(byArrival[i], cy, cfg, loss, sr)
		}

		now = cy.End()
		if air != nil {
			now = cy.Start + air.total
		}
		cycleNum++
	}

	for _, cl := range clients {
		res.Clients = append(res.Clients, cl.stats)
	}
	res.Engine = eng.Metrics()
	return res, nil
}

// cycleAir is one compressed single-channel cycle's on-air layout: its
// segments' envelope sizes plus each document frame's end offset within the
// doc region.
type cycleAir struct {
	head, index, secondTier int
	doc                     []int
	docEnd                  []int64
	total                   int64
}

// newCycleAir reads a compressed cycle's layout off the lengths of the frames
// the engine airs, in air order: the head, the index, the second tier when it
// airs (two-tier mode), then one frame per document.
func newCycleAir(cy *broadcast.Cycle, enc *engine.Encoded) *cycleAir {
	frames := enc.Frames[0]
	docs := frames[len(frames)-len(cy.Docs):]
	air := &cycleAir{head: len(frames[0]), index: len(frames[1])}
	for _, f := range frames[2 : len(frames)-len(docs)] {
		air.secondTier += len(f)
	}
	air.doc = make([]int, len(docs))
	air.docEnd = make([]int64, len(docs))
	off := int64(0)
	for i, f := range docs {
		air.doc[i] = len(f)
		off += int64(len(f))
		air.docEnd[i] = off
	}
	air.total = int64(air.head+air.index+air.secondTier) + off
	return air
}

// The three accessors below are the single-channel client's view of one
// cycle's sizes: the plan's own on the bare wire (nil receiver), the measured
// envelopes' on a compressed one.

// indexRead is the cost of one index navigation. A compressed frame is
// atomic — the radio must hold a whole envelope to inflate it — so it costs
// the full compressed segment, whole-tier by construction.
func (air *cycleAir) indexRead(cl *client, cy *broadcast.Cycle, cfg Config, sr *succinctReader) int {
	if air == nil {
		return indexReadBytes(cl, cy, cfg, sr)
	}
	return air.index
}

// secondTierRead is the cost of the per-cycle second-tier read.
func (air *cycleAir) secondTierRead(cy *broadcast.Cycle) int {
	if air == nil {
		return cy.SecondTierBytes
	}
	return air.secondTier
}

// docRead is the download cost of the cycle's i-th document and the absolute
// byte-time its last byte airs; on a compressed cycle that falls on an
// envelope boundary.
func (air *cycleAir) docRead(cy *broadcast.Cycle, i int) (size int, end int64) {
	if air == nil {
		p := cy.Docs[i]
		return p.Size, cy.DocStart() + int64(p.Offset+p.Size)
	}
	return air.doc[i], cy.Start + int64(air.head+air.index+air.secondTier) + air.docEnd[i]
}

// lossProcess draws independent reception failures.
type lossProcess struct {
	p   float64
	rng *rand.Rand
}

// fail reports whether one reception attempt is lost. A nil process never
// fails.
func (l *lossProcess) fail() bool {
	return l != nil && l.rng.Float64() < l.p
}

// attendCycle plays one client's protocol over one cycle. Lost receptions
// still cost tuning bytes (the radio was awake) but deliver nothing: a lost
// first-tier read is retried next cycle, a lost per-cycle index read skips
// this cycle's documents, and a lost document stays in the remaining set and
// is rescheduled by the server. air is the compressed layout of a
// single-channel cycle, nil on the bare wire; segment sizes and document end
// times are read through it either way.
func attendCycle(cl *client, cy *broadcast.Cycle, cfg Config, loss *lossProcess, sr *succinctReader, air *cycleAir) {
	if len(cy.Channels) > 1 {
		attendMultichannel(cl, cy, cfg, loss, sr)
		return
	}
	cl.stats.CyclesListened++
	indexOK := true
	switch cfg.Mode {
	case broadcast.TwoTierMode:
		// First-tier index search: once, on the client's first cycle
		// (§3.4 improved access protocol).
		if !cl.knowsDocs {
			cl.stats.IndexTuningBytes += int64(air.indexRead(cl, cy, cfg, sr))
			if loss.fail() {
				indexOK = false
			} else {
				cl.knowsDocs = true
			}
		}
		// Second-tier index search: every cycle.
		cl.stats.IndexTuningBytes += int64(air.secondTierRead(cy))
		if loss.fail() {
			indexOK = false
		}
	case broadcast.OneTierMode:
		// The embedded offsets change every cycle, so the index must be
		// re-navigated every cycle.
		cl.stats.IndexTuningBytes += int64(air.indexRead(cl, cy, cfg, sr))
		if loss.fail() {
			indexOK = false
		}
	}

	// Document retrieval: download scheduled result documents. Without a
	// successful index read this cycle the client has no offsets and must
	// doze until the next cycle.
	if indexOK {
		for i, p := range cy.Docs {
			if !xmldoc.HasID(cl.remaining, p.ID) {
				continue
			}
			size, end := air.docRead(cy, i)
			cl.stats.DocTuningBytes += int64(size)
			if loss.fail() {
				continue // stays remaining; the server reschedules it
			}
			cl.remaining = xmldoc.RemoveID(cl.remaining, p.ID)
			cl.receive(p.ID, end)
		}
	}
	cl.done = len(cl.remaining) == 0
}

// attendMultichannel plays one client's protocol over a K-channel cycle with
// a single tuner. The server's belief (cl.remaining) retires by the cycle's
// receivable commitment — the same rule the networked server applies, keyed
// on the admission cycle — so the pending view driving the scheduler evolves
// identically across drivers. The client executes that commitment for the
// documents it still needs (no commitment is ever starved) and then fills
// the tuner's gaps with opportunistic catches: documents the conservative
// commitment skipped but that a client already holding the directory — e.g.
// one that synced mid-cycle on an index repetition — can still receive.
func attendMultichannel(cl *client, cy *broadcast.Cycle, cfg Config, loss *lossProcess, sr *succinctReader) {
	commit := cy.Commitments(nil, cl.remaining, cy.Number == cl.admit)
	for _, p := range commit {
		cl.remaining = xmldoc.RemoveID(cl.remaining, p.ID)
	}
	defer func() { cl.done = len(cl.remaining) == 0 }()

	if len(cl.needed) == 0 {
		return // already complete; the server drains its belief unattended
	}
	cl.stats.CyclesListened++
	firstListen := !cl.knowsDocs
	cl.stats.IndexTuningBytes += int64(cy.DirBytes)
	indexOK := !loss.fail()
	if firstListen {
		cl.stats.IndexTuningBytes += int64(indexReadBytes(cl, cy, cfg, sr))
		if loss.fail() {
			indexOK = false
		} else {
			cl.knowsDocs = true
		}
	}
	ready := cy.DirEnd()
	if firstListen {
		ready = cy.IndexEnd()
	}
	if !indexOK {
		// Lost the directory: nothing received this cycle. Still-needed
		// committed documents are re-requested over the uplink.
		for _, p := range commit {
			if xmldoc.HasID(cl.needed, p.ID) {
				cl.remaining = xmldoc.InsertID(cl.remaining, p.ID)
			}
		}
		return
	}

	var busy []broadcast.AirInterval
	download := func(cm broadcast.Commitment) {
		busy = append(busy, broadcast.AirInterval{Start: cm.Start, End: cm.End})
		cl.stats.DocTuningBytes += int64(cm.Size)
		if loss.fail() {
			cl.remaining = xmldoc.InsertID(cl.remaining, cm.ID) // re-requested; rescheduled
			return
		}
		cl.receive(cm.ID, cm.End)
	}
	extra := slices.Clone(cl.needed)
	for _, cm := range commit {
		if !xmldoc.HasID(cl.needed, cm.ID) {
			continue // already caught earlier; the tuner stays free
		}
		extra = xmldoc.RemoveID(extra, cm.ID)
		if cm.Start < ready {
			// Committed before this client could actually act on the
			// directory (a lost earlier first-tier read); re-requested.
			cl.remaining = xmldoc.InsertID(cl.remaining, cm.ID)
			continue
		}
		download(cm)
	}
	for _, cm := range cy.CommitmentsFrom(nil, extra, ready, busy) {
		download(cm)
	}
}

// eavesdropCycle models a client whose request arrives while a multichannel
// cycle is already on air: it tunes the index channel, syncs at the next
// complete [head][directory][first tier] repetition, and catches whatever
// still-airing documents of its result set earlier demand put on this cycle
// — all before the server has admitted the request. This is the access-time
// payoff of replicating the first tier on a dedicated channel: a serial
// program's index has already flown past a mid-cycle joiner.
func eavesdropCycle(cl *client, cy *broadcast.Cycle, cfg Config, loss *lossProcess, sr *succinctReader) {
	if cl.knowsDocs {
		return
	}
	sync, ok := cy.SyncAfter(cl.req.Arrival)
	if !ok {
		return
	}
	cl.stats.CyclesListened++
	cl.stats.IndexTuningBytes += int64(cy.DirBytes) + int64(indexReadBytes(cl, cy, cfg, sr))
	if loss.fail() {
		return
	}
	cl.knowsDocs = true
	for _, cm := range cy.CommitmentsFrom(nil, cl.needed, sync, nil) {
		cl.stats.DocTuningBytes += int64(cm.Size)
		if loss.fail() {
			continue // still in the server's belief; rescheduled
		}
		cl.stats.EavesdropDocs++
		cl.receive(cm.ID, cm.End)
	}
}

// queryRead is one distinct query's navigator and the cost of its latest
// index read, shared by every client of the query.
type queryRead struct {
	nav   *core.Navigator
	cycle int64 // number of the cycle bytes was read on; -1 before any read
	bytes int
}

// indexReadBytes is the cost of one index navigation: whole tier under
// WholeTierRead, otherwise the distinct packets the lookup touches — of the
// materialized index under node encoding, of the balanced-parentheses blob
// (header, directories, BP words, labels, doc groups) under succinct. The
// cost depends only on the cycle and the query, so the first client of a
// query to read a cycle navigates it and the others reuse the count.
func indexReadBytes(cl *client, cy *broadcast.Cycle, cfg Config, sr *succinctReader) int {
	if cfg.WholeTierRead {
		return cy.IndexBytes
	}
	r := cl.read
	if r.cycle == cy.Number {
		return r.bytes
	}
	if cfg.IndexEncoding == core.EncodingSuccinct {
		sr.cursor.Lookup(r.nav.Filter())
		r.bytes = sr.cursor.TouchedBytes()
	} else {
		r.bytes = cy.Packing.BytesFor(r.nav.Lookup(cy.Index).Visited)
	}
	r.cycle = cy.Number
	return r.bytes
}

// succinctReader caches the encoded-and-parsed succinct tier plus a reusable
// cursor for the cycle currently on air, so every index navigation this
// cycle shares one parse and one scratch set.
type succinctReader struct {
	loaded bool
	number int64
	tier   *succinct.Tier
	cursor *succinct.Cursor
}

func (s *succinctReader) load(cy *broadcast.Cycle) error {
	if s.loaded && s.number == cy.Number {
		return nil
	}
	blob, err := succinct.EncodeTier(cy.Index, cy.Catalog, cy.Packing.Model)
	if err != nil {
		return fmt.Errorf("sim: encode succinct tier: %w", err)
	}
	tier, err := succinct.Parse(blob, cy.Packing.Model, cy.Catalog)
	if err != nil {
		return fmt.Errorf("sim: parse succinct tier: %w", err)
	}
	s.loaded, s.number, s.tier, s.cursor = true, cy.Number, tier, tier.NewCursor()
	return nil
}

// resolveAnswers resolves every distinct query once through the engine's
// memoized resolver.
func resolveAnswers(eng *engine.Engine, reqs []ClientRequest) (map[string][]xmldoc.DocID, error) {
	out := make(map[string][]xmldoc.DocID, len(reqs))
	for _, r := range reqs {
		key := r.Query.String()
		if _, ok := out[key]; ok {
			continue
		}
		if out[key] = eng.Resolve(r.Query); len(out[key]) == 0 {
			return nil, fmt.Errorf("sim: query %s has an empty result set; the paper assumes satisfiable requests", key)
		}
	}
	return out, nil
}
