// Package sim is the discrete-event simulator of the on-demand broadcast
// system (§4): a server that accumulates XPath requests, schedules result
// documents into fixed-capacity cycles and broadcasts an air index ahead of
// them; and clients that follow the one-tier or two-tier access protocol,
// accounting tuning time and access time in bytes at constant bandwidth,
// exactly as the paper measures them.
//
// Every cycle is encoded into the frames a netcast server airs, and on a
// single channel every client reads them with netcast's own reader
// (package access), on the simulator's byte clock. A cycle's frames are
// decoded once for all of its clients, and since an index read depends only
// on the cycle and the query (§3.4), the clients of one query share one
// navigator and the index is navigated once per (cycle, query). Clients
// attend a cycle in parallel, one shard of them per core, unless a loss
// process, one random stream drawn in client order, orders them; the result
// is the same either way.
//
// As the paper's server does (§3.4, §4), a lossless single-channel run builds
// the next cycle while the current one is on air: the server's belief of
// what a request still lacks is taken from what each cycle aired, shared by
// the clients of one query admitted in one cycle, so cycle N+1 assembles
// while cycle N's clients attend, and the join checks every client against
// that belief. A lossy run's belief follows each client's receptions, and a
// multichannel run's each client's own receivable commitment; there the
// clients attend a cycle before the next assembles. The results are the same
// in either order.
package sim

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/access"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/netcast/transport"
	"repro/internal/schedule"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
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
	// CycleSink, if non-nil, receives every assembled cycle together with
	// its encoded frames, exactly as the networked server broadcasts them
	// and the simulated clients read them. The Encoded's frames are only
	// valid during the call.
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
	// server airs it, and clients read the envelopes, so cycles occupy less
	// air and the clock — and therefore access time at fixed bandwidth —
	// advances by the bytes the server sends. An envelope is read whole: index
	// tuning counts the whole compressed tier rather than the packets the
	// lookup touches, and a lost reception (LossProb) costs the whole envelope
	// (see broadcast.CheckCompress for the channel rule).
	Compress bool
}

func (c *Config) applyDefaults() {
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
	return nil
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
// server does for a subscriber it cannot observe. nav is shared with every
// other client of the same query.
//
// On a single channel the client is netcast's reader fed the cycle's frames,
// and the server's belief is one of two things. On a lossless run it is the
// client's class (see class), retired by what each cycle aired. Otherwise it
// retires with each document the client receives: remaining — the answer,
// shared — until the reader knows the result set, and the reader's remaining
// documents after. needed is not kept.
type client struct {
	id        int64
	nav       *core.Navigator
	remaining []xmldoc.DocID
	needed    []xmldoc.DocID
	admit     int64 // cycle number that first covered the request
	knowsDocs bool  // multichannel: first tier already read
	stats     ClientStats
	cls       *class // lossless single channel: the server's belief

	reader access.Reader
	loss   *lossProcess
	start  int64 // byte-time the cycle being read started
}

// class is the clients of one query admitted in one cycle. On a lossless
// single channel each of them receives every document of its result set that
// a cycle airs, so they share one server belief — the result set less what
// the cycles since their admission aired — retired once a cycle for all of
// them: the rule engine.Ledger's commit applies at K = 1.
type class struct {
	belief []xmldoc.DocID
}

// receive records downloaded document id, whose last byte aired at end.
func (cl *client) receive(id xmldoc.DocID, end int64) {
	left := cl.reader.Remaining()
	if left == nil { // multichannel: the reader is not fed
		cl.needed = xmldoc.RemoveID(cl.needed, id)
		left = cl.needed
	}
	cl.stats.Completed = max(cl.stats.Completed, end)
	if len(left) == 0 {
		cl.stats.AccessBytes = cl.stats.Completed - cl.stats.Arrival
	}
}

// Lost implements access.Sink: one draw of the loss process per tuned
// reception.
func (cl *client) Lost() bool { return cl.loss.fail() }

// Receive implements access.Sink: the document's last byte airs where the
// reader stands in the cycle.
func (cl *client) Receive(f *access.Frame) error {
	cl.receive(f.Doc, cl.start+cl.reader.Offset())
	return nil
}

// belief is the server's view of the documents cl still lacks; the request
// leaves the pending set when it drains.
func (cl *client) belief() []xmldoc.DocID {
	if cl.cls != nil {
		return cl.cls.belief
	}
	if rem := cl.reader.Remaining(); rem != nil {
		return rem
	}
	return cl.remaining
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

	var loss *lossProcess
	if cfg.LossProb > 0 {
		loss = &lossProcess{p: cfg.LossProb, rng: rand.New(rand.NewSource(cfg.LossSeed))}
	}
	// Clients sorted by arrival; original order retained for reporting.
	// Clients of one query share its navigator.
	clients := make([]*client, len(cfg.Requests))
	navs := make(map[string]*core.Navigator, len(answers))
	for i, r := range cfg.Requests {
		key := r.Query.String()
		docs := answers[key]
		nav := navs[key]
		if nav == nil {
			nav = core.NewNavigator(r.Query)
			navs[key] = nav
		}
		clients[i] = &client{
			id:        int64(i),
			nav:       nav,
			remaining: docs, // shared, and only read, until the reader knows the result set
			stats:     ClientStats{Query: r.Query, Arrival: r.Arrival, Docs: docs},
			loss:      loss,
		}
		if cfg.Channels > 1 {
			clients[i].remaining = slices.Clone(docs) // answers are sorted, and shared
			clients[i].needed = slices.Clone(docs)
		} else {
			clients[i].reader.Init(nav, 1, clients[i])
			clients[i].reader.WholeTier = cfg.WholeTierRead
		}
	}
	byArrival := append([]*client(nil), clients...)
	sort.SliceStable(byArrival, func(i, j int) bool { return byArrival[i].stats.Arrival < byArrival[j].stats.Arrival })

	// On a lossless single channel the server's belief is taken from what
	// each cycle aired, not from the clients, so the next cycle assembles
	// while this one's clients attend (see attendance).
	overlap := overlapCycles(&cfg)
	res := &Result{Mode: cfg.Mode}
	var (
		now      int64
		admitted int // prefix of byArrival already active
		// active, spare (the clients of the cycle still attending) and
		// pending, reused across cycles, never outgrow the clients, so they
		// are sized once.
		active    = make([]*client, 0, len(clients))
		spare     = make([]*client, 0, len(clients))
		pending   = make([]engine.Pending, 0, len(clients))
		frames    [2][]access.Frame // the cycle attending and the one assembled
		fly       = attendance{done: make(chan error, 1)}
		cycleNum  int64
		completed int
		// Overlapped runs: the classes whose belief has not drained, those
		// admitted this cycle by query, and the documents a cycle aired.
		classes []*class
		fresh   map[*core.Navigator]*class
		aired   []bool
	)
	defer fly.wait() // an error return leaves no client attending
	if overlap {
		fresh = make(map[*core.Navigator]*class)
		aired = make([]bool, maxDocID(cfg.Collection)+1)
	}
	for completed < len(clients) {
		if cycleNum >= int64(cfg.MaxCycles) {
			return nil, fmt.Errorf("sim: exceeded MaxCycles=%d with %d clients outstanding", cfg.MaxCycles, len(clients)-completed)
		}
		// Admit arrivals; if idle, jump to the next arrival.
		if len(active) == 0 && admitted < len(byArrival) {
			if t := byArrival[admitted].stats.Arrival; t > now {
				now = t
			}
		}
		for admitted < len(byArrival) && byArrival[admitted].stats.Arrival <= now {
			cl := byArrival[admitted]
			cl.admit = cycleNum
			if overlap {
				if cl.cls = fresh[cl.nav]; cl.cls == nil {
					cl.cls = &class{belief: slices.Clone(cl.stats.Docs)}
					fresh[cl.nav] = cl.cls
					classes = append(classes, cl.cls)
				}
			}
			active = append(active, cl)
			admitted++
		}
		clear(fresh)
		if len(active) == 0 {
			return nil, fmt.Errorf("sim: no active clients but %d incomplete", len(clients)-completed)
		}

		// Server: hand the pending view to the shared assembly engine, in
		// byte-time. Every client is a request of its own, whether or not
		// its belief is shared.
		pending = pending[:0]
		for _, cl := range active {
			pending = append(pending, engine.Pending{ID: cl.id, Query: cl.stats.Query, Arrival: cl.stats.Arrival, Remaining: cl.belief()})
		}
		cy, err := eng.AssembleCycle(cycleNum, now, pending)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		enc, err := eng.EncodeCycle(cy)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if cfg.CycleSink != nil {
			cfg.CycleSink(cy, enc)
		}
		// The clients read channel 0's frames, decoded once for all of them:
		// on a single channel the whole cycle, at K > 1 the first tier.
		fb := &frames[cycleNum%2]
		if *fb, err = decodeAir((*fb)[:0], enc.Frames[0], cfg.Compress, cy.Index.Model); err != nil {
			return nil, err
		}
		st := CycleStats{
			Number:           cy.Number,
			Start:            cy.Start,
			HeadBytes:        cy.HeadBytes,
			IndexBytes:       cy.IndexBytes,
			SecondTierBytes:  cy.SecondTierBytes,
			DirBytes:         cy.DirBytes,
			DocBytes:         cy.DocBytes,
			DurationBytes:    cy.Duration(),
			IndexRepetitions: cy.IndexRepetitions(),
			NumDocs:          len(cy.Docs),
			IndexNodes:       cy.Index.NumNodes(),
			Pending:          len(pending),
		}
		for i := range cy.Channels {
			st.ChannelBytes = append(st.ChannelBytes, cy.Channels[i].Bytes)
		}
		var firstTier func(*client) (int64, error) // K > 1: a client's first-tier read
		if len(cy.Channels) > 1 {
			var head *wire.CycleHead
			for i := range *fb {
				switch f := &(*fb)[i]; f.Type {
				case wire.FrameCycleHead:
					head = f.Head
				case wire.FrameIndex:
					firstTier = func(cl *client) (int64, error) {
						_, _, cost, err := f.Read(head, cl.nav, cfg.WholeTierRead)
						return cost, err
					}
				}
			}
		} else {
			st.DurationBytes = 0 // the frames' air: a compressed cycle's is its envelopes'
			for i := range *fb {
				st.DurationBytes += (*fb)[i].Air
			}
		}
		res.Cycles = append(res.Cycles, st)
		end := cy.Start + st.DurationBytes

		// Clients: attend the cycle, once the cycle before has been attended.
		// A lost reception still costs tuning bytes (the radio was awake) but
		// delivers nothing: a lost first-tier read is retried next cycle, a
		// lost per-cycle index read skips this cycle's documents, and a lost
		// document stays in the remaining set and is rescheduled by the
		// server.
		if err := fly.join(eng); err != nil {
			return nil, err
		}
		start, single := cy.Start, len(cy.Channels) <= 1
		fly = attendance{num: cy.Number, clients: active, enc: enc, frames: fb, done: fly.done, running: true,
			attend: func(cl *client) error {
				if single {
					return attendFrames(cl, start, *fb)
				}
				return attendMultichannel(cl, cy, loss, firstTier)
			}}
		if overlap {
			go fly.run(loss)
		} else {
			fly.run(loss)
			if err := fly.wait(); err != nil {
				return nil, err
			}
		}
		// The server's belief, taken from the air on an overlapped run, drops
		// the requests it drains.
		if overlap {
			for _, p := range cy.Docs {
				aired[p.ID] = true
			}
			classes = retire(classes, aired)
			clear(aired)
		}
		next := spare[:0]
		for _, cl := range active {
			if len(cl.belief()) == 0 {
				completed++
			} else {
				next = append(next, cl)
			}
		}
		active, spare = next, active

		// Clients whose requests arrive while this cycle is on air eavesdrop
		// on the index channel: they sync at the next index repetition and
		// may catch documents already airing for earlier requests, before the
		// server has even admitted them. (Multichannel only, so never on a
		// compressed run.)
		for i := admitted; firstTier != nil && i < len(byArrival); i++ {
			if byArrival[i].stats.Arrival >= end {
				break
			}
			if err := eavesdropCycle(byArrival[i], cy, loss, firstTier); err != nil {
				return nil, fmt.Errorf("sim: cycle %d: %w", cy.Number, err)
			}
		}
		now = end
		cycleNum++
	}
	if err := fly.join(eng); err != nil {
		return nil, err
	}

	res.Clients = make([]ClientStats, len(clients))
	for i, cl := range clients {
		res.Clients[i] = cl.stats
	}
	res.Engine = eng.Metrics()
	return res, nil
}

// overlapCycles reports whether a run takes the server's belief from the
// air and attends each cycle while the next assembles: only a lossless
// single-channel run, where every client receives every document of its
// result set that a cycle airs. A loss process is one random stream drawn in
// client order, and a multichannel client receives the receivable commitment
// keyed on its own admission, so those runs attend each cycle before the
// next assembles. A variable so tests can force that order on any run.
var overlapCycles = func(cfg *Config) bool { return cfg.LossProb == 0 && cfg.Channels <= 1 }

// retire drops the documents marked in aired from every class's belief and
// returns the classes whose belief has not drained, in order.
func retire(classes []*class, aired []bool) []*class {
	live := classes[:0]
	for _, c := range classes {
		if c.belief = slices.DeleteFunc(c.belief, func(d xmldoc.DocID) bool { return aired[d] }); len(c.belief) > 0 {
			live = append(live, c)
		}
	}
	clear(classes[len(live):])
	return live
}

// maxDocID is the largest document ID in c.
func maxDocID(c *xmldoc.Collection) xmldoc.DocID {
	var m xmldoc.DocID
	for _, d := range c.Docs() {
		m = max(m, d.ID)
	}
	return m
}

// attendance is one cycle's clients attending it. On an overlapped run they
// attend on a goroutine of their own while the next cycle assembles, reading
// the cycle's decoded frames, which stay valid until join hands them back.
type attendance struct {
	num     int64
	clients []*client
	enc     *engine.Encoded
	frames  *[]access.Frame
	attend  func(*client) error
	done    chan error // run's result, read by wait
	running bool       // run's result not yet read
	err     error
}

// run attends the cycle for every client; it may run on its own goroutine.
func (a *attendance) run(loss *lossProcess) {
	a.done <- attendAll(a.clients, loss, a.attend)
}

// wait waits for the clients and returns the first one's error, in active
// order.
func (a *attendance) wait() error {
	if a.running {
		a.running = false
		if err := <-a.done; err != nil {
			a.err = fmt.Errorf("sim: cycle %d: %w", a.num, err)
		}
	}
	return a.err
}

// join waits for the clients, checks each against the server's belief where
// that was taken from the air — a client is done exactly when its class's
// belief drained — and hands the cycle's frames back to the engine.
func (a *attendance) join(eng *engine.Engine) error {
	if a.enc == nil {
		return nil // nothing attending, or joined already
	}
	if err := a.wait(); err != nil {
		return err
	}
	for _, cl := range a.clients {
		if cl.cls != nil && cl.reader.Done() != (len(cl.cls.belief) == 0) {
			return fmt.Errorf("sim: cycle %d: client %d has %d result documents left, the server believes %d",
				a.num, cl.id, len(cl.reader.Remaining()), len(cl.cls.belief))
		}
	}
	eng.Recycle(a.enc)
	clear(*a.frames)
	a.enc = nil
	return nil
}

// minShard is the fewest clients attendAll hands a goroutine of its own:
// fewer are not worth a goroutine's start and join.
const minShard = 256

// attendShards is how many goroutines attend a cycle's n active clients: one
// per core, each with at least minShard clients. A variable so tests can fix
// it.
var attendShards = func(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n/minShard)) }

// attendAll plays one cycle for every active client through attend. Clients
// are independent but for the index frame they read (access.Index serialises
// that), so contiguous shards of them attend on their own goroutines. A loss
// process is one random stream drawn in client order, so a lossy run attends
// on one goroutine. The error is the first client's, in active order.
func attendAll(active []*client, loss *lossProcess, attend func(*client) error) error {
	shards := 1
	if loss == nil {
		shards = attendShards(len(active))
	}
	width := (len(active) + shards - 1) / shards
	errs := make([]error, shards)
	attendShard := func(s int) {
		for _, cl := range active[min(s*width, len(active)):min((s+1)*width, len(active))] {
			if errs[s] = attend(cl); errs[s] != nil {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for s := 1; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			attendShard(s)
		}()
	}
	attendShard(0) // the calling goroutine attends the first shard
	wg.Wait()
	return cmp.Or(errs...) // the first shard's error is the first client's
}

// attendFrames feeds one client's reader a single-channel cycle that started
// at byte-time start.
func attendFrames(cl *client, start int64, frames []access.Frame) error {
	cl.start = start
	for i := range frames {
		if _, err := cl.reader.Feed(&frames[i]); err != nil {
			return err
		}
	}
	if cl.reader.Done() {
		st := cl.reader.Stats()
		cl.stats.IndexTuningBytes, cl.stats.DocTuningBytes, cl.stats.CyclesListened = st.IndexTuning, st.DocTuning, st.Cycles
	}
	return nil
}

// decodeFrame decodes one frame for the clients of a cycle; a variable so
// tests can count the decodes.
var decodeFrame = access.Decode

// decodeAir decodes the frames one channel of a cycle airs, as the engine
// encoded them, into dst: bare wire frames at their access.Air, or transport
// envelopes at their wire size, read whole.
func decodeAir(dst []access.Frame, frames [][]byte, compressed bool, m core.SizeModel) ([]access.Frame, error) {
	var tr *transport.Reader
	if compressed {
		tr = transport.NewReader(bytes.NewReader(slices.Concat(frames...)))
	}
	for _, b := range frames {
		air := int64(len(b))
		if compressed {
			env, err := tr.Next()
			if err != nil {
				return nil, fmt.Errorf("sim: %w", err)
			}
			b = bytes.Clone(env.Inner)
		}
		t, payload, err := wire.ParseFrame(b)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if !compressed {
			air = access.Air(t, payload, m)
		}
		f, err := decodeFrame(t, payload, air, m)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		f.Whole = compressed
		dst = append(dst, f)
	}
	return dst, nil
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

// attendMultichannel plays one client's protocol over a K-channel cycle with
// a single tuner. The server's belief (cl.remaining) retires by the cycle's
// receivable commitment — the same rule the networked server applies, keyed
// on the admission cycle — so the pending view driving the scheduler evolves
// identically across drivers. The client executes that commitment for the
// documents it still needs (no commitment is ever starved) and then fills
// the tuner's gaps with opportunistic catches: documents the conservative
// commitment skipped but that a client already holding the directory — e.g.
// one that synced mid-cycle on an index repetition — can still receive.
func attendMultichannel(cl *client, cy *broadcast.Cycle, loss *lossProcess, firstTier func(*client) (int64, error)) error {
	commit := cy.Commitments(nil, cl.remaining, cy.Number == cl.admit)
	for _, p := range commit {
		cl.remaining = xmldoc.RemoveID(cl.remaining, p.ID)
	}

	if len(cl.needed) == 0 {
		return nil // already complete; the server drains its belief unattended
	}
	cl.stats.CyclesListened++
	firstListen := !cl.knowsDocs
	cl.stats.IndexTuningBytes += int64(cy.DirBytes)
	indexOK := !loss.fail()
	if firstListen {
		cost, err := firstTier(cl)
		if err != nil {
			return err
		}
		cl.stats.IndexTuningBytes += cost
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
		return nil
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
	return nil
}

// eavesdropCycle models a client whose request arrives while a multichannel
// cycle is already on air: it tunes the index channel, syncs at the next
// complete [head][directory][first tier] repetition, and catches whatever
// still-airing documents of its result set earlier demand put on this cycle
// — all before the server has admitted the request. This is the access-time
// payoff of replicating the first tier on a dedicated channel: a serial
// program's index has already flown past a mid-cycle joiner.
func eavesdropCycle(cl *client, cy *broadcast.Cycle, loss *lossProcess, firstTier func(*client) (int64, error)) error {
	if cl.knowsDocs {
		return nil
	}
	sync, ok := cy.SyncAfter(cl.stats.Arrival)
	if !ok {
		return nil
	}
	cost, err := firstTier(cl)
	if err != nil {
		return err
	}
	cl.stats.CyclesListened++
	cl.stats.IndexTuningBytes += int64(cy.DirBytes) + cost
	if loss.fail() {
		return nil
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
