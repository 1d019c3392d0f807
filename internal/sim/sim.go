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
// navigator and the index is navigated once per (cycle, query). A reader's
// course depends only on its query, the cycles it is fed and its losses, so
// on a lossless single channel the clients the ledger admits into one class
// (engine.Ledger.Class) share one reader, fed once per cycle; each client
// copies its tuning, cycles and completion and counts access time from its
// own arrival. Readers attend a cycle in
// parallel, one shard of them per core, unless a loss process, one random
// stream drawn in client order, orders them; the result is the same either
// way.
//
// The server is an engine.Ledger on the byte clock, as in netcast: arrivals
// are admitted into it and cycles air through it, and the ledger alone says
// what a cycle commits to a request (Ledger.Commitments). A client that did
// not receive a committed document reports it Missed — the simulator's ideal
// uplink — so it airs again. As the paper's server does (§3.4, §4), a
// lossless run, whose clients miss nothing, assembles cycle N+1 while cycle
// N's clients attend, each with its own copy of its commitment, and the join
// checks each client against the ledger's commit; a lossy run attends inside
// the cycle's air. The results are the same in either order.
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
	// failed document is reported Missed to the server, which reschedules
	// it; a failed first-tier read is retried next cycle. Zero disables
	// loss. Must be in [0, 1).
	LossProb float64
	// LossSeed seeds the loss process deterministically.
	LossSeed int64
	// MaxCycles aborts runaway simulations. Default 100000. A lossless run
	// also fails once stallCycles cycles in a row deliver nothing.
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

// validate checks what only the simulator reads; engine.New checks the rest.
func (c *Config) validate() error {
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

// client is the in-flight state of one request, the client's side: what the
// server believes it lacks is the ledger's. On a single channel the client is
// netcast's reader fed the cycle's frames, a reader it may share with the
// other clients of its class. On multichannel runs needed is
// what it has yet to download, which can drain ahead of the ledger's set (a
// client synced mid-cycle on an index repetition catches documents beyond the
// conservative commitment); the request stays pending until the ledger's set
// drains, as in the networked server.
type client struct {
	index     int   // position in Config.Requests
	id        int64 // the ledger's request ID
	q         *query
	needed    []xmldoc.DocID         // multichannel only
	commit    []broadcast.Commitment // multichannel: the ledger's commitment in the cycle attended
	knowsDocs bool                   // multichannel: first tier already read
	served    bool                   // the ledger retired the request
	stats     ClientStats

	// reader is the reader the client receives on (nil at K > 1): its own,
	// or, when lead is not nil, the reader of the client it shares one with,
	// which is fed, and whose account this client copies.
	reader *access.Reader
	lead   *client
	loss   *lossProcess
	start  int64 // byte-time the cycle being read started
}

// query is one distinct query: its clients' navigator and its answer.
type query struct {
	nav  *core.Navigator
	docs []xmldoc.DocID
}

// receive records downloaded document id, whose last byte aired at end.
func (cl *client) receive(id xmldoc.DocID, end int64) {
	if cl.needed != nil { // multichannel: the reader is not fed
		cl.needed = xmldoc.RemoveID(cl.needed, id)
	}
	cl.stats.Completed = max(cl.stats.Completed, end)
	if cl.done() {
		cl.stats.AccessBytes = cl.stats.Completed - cl.stats.Arrival
	}
}

// done reports whether cl holds its whole result set.
func (cl *client) done() bool {
	if cl.needed != nil {
		return len(cl.needed) == 0
	}
	return cl.reader.Done()
}

// copyLead takes the account of the reader cl shares: its tuning, cycles
// and completion, with the access time from cl's own arrival.
func (cl *client) copyLead() {
	ld := &cl.lead.stats
	cl.stats.IndexTuningBytes, cl.stats.DocTuningBytes, cl.stats.CyclesListened = ld.IndexTuningBytes, ld.DocTuningBytes, ld.CyclesListened
	cl.stats.Completed = ld.Completed
	cl.stats.AccessBytes = cl.stats.Completed - cl.stats.Arrival
}

// lacks reports whether cl has yet to receive document d of its result set.
func (cl *client) lacks(d xmldoc.DocID) bool {
	if cl.needed != nil {
		return xmldoc.HasID(cl.needed, d)
	}
	rem := cl.reader.Remaining() // nil until the reader knows the result set
	return !cl.reader.Done() && (rem == nil || xmldoc.HasID(rem, d))
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

// Run executes the simulation until every request completes.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.MaxCycles = cmp.Or(cfg.MaxCycles, 100000)

	eng, err := engine.New(engine.Config{
		Collection:    cfg.Collection,
		Model:         cfg.Model,
		Mode:          cfg.Mode,
		IndexEncoding: cfg.IndexEncoding,
		Scheduler:     cfg.Scheduler,
		CycleCapacity: cfg.CycleCapacity,
		Probe:         cfg.Probe,
		Limits:        cfg.Limits,
		Channels:      cfg.Channels,
		Compress:      cfg.Compress,
	})
	if err != nil {
		return nil, err
	}
	led, _ := engine.NewLedger(eng, nil, nil) // the server, in memory: only a journal's recovery fails

	var loss *lossProcess
	if cfg.LossProb > 0 {
		loss = &lossProcess{p: cfg.LossProb, rng: rand.New(rand.NewSource(cfg.LossSeed))}
	}
	// Clients sorted by arrival, stably: the ledger's IDs follow admission
	// order, so the (arrival, ID) order the scheduler breaks ties by is the
	// request order's. Each distinct query is resolved once, here: the
	// collection does not change during a run.
	clients := make([]*client, len(cfg.Requests))
	queries := make(map[string]*query)
	for i, r := range cfg.Requests {
		key := r.Query.String()
		q := queries[key]
		if q == nil {
			q = &query{nav: core.NewNavigator(r.Query), docs: slices.Clone(eng.Resolve(r.Query))}
			queries[key] = q
		}
		cl := &client{index: i, q: q, stats: ClientStats{Query: r.Query, Arrival: r.Arrival, Docs: q.docs}, loss: loss}
		if cfg.Channels > 1 {
			cl.needed = slices.Clone(q.docs)
		}
		clients[i] = cl
	}
	byArrival := append([]*client(nil), clients...)
	sort.SliceStable(byArrival, func(i, j int) bool { return byArrival[i].stats.Arrival < byArrival[j].stats.Arrival })

	overlap, share := overlapCycles(&cfg), shareReaders(&cfg)
	res := &Result{Mode: cfg.Mode}
	var (
		now      int64
		admitted int // prefix of byArrival already admitted
		// active and spare (the clients of the cycle still attending), reused
		// across cycles, never outgrow the clients, so they are sized once.
		active    = make([]*client, 0, len(clients))
		spare     = make([]*client, 0, len(clients))
		leadsBuf  []*client                 // the active clients that read for themselves
		byClass   = make(map[int64]*client) // reader owners, by the ID keying their class
		frames    [2][]access.Frame         // the cycle attending and the one assembled
		fly       attendance
		completed int
		barren    int // lossless cycles in a row that delivered nothing
	)
	defer fly.wait() // an error return leaves no client attending
	for completed < len(clients) {
		if led.Cycles() >= int64(cfg.MaxCycles) {
			return nil, fmt.Errorf("sim: exceeded MaxCycles=%d with %d clients outstanding", cfg.MaxCycles, len(clients)-completed)
		}
		// Admit arrivals; if idle, jump to the next arrival.
		if len(active) == 0 && admitted < len(byArrival) {
			now = max(now, byArrival[admitted].stats.Arrival)
		}
		for admitted < len(byArrival) && byArrival[admitted].stats.Arrival <= now {
			cl := byArrival[admitted]
			if _, cl.id, err = led.Admit(cl.stats.Query, 0, cl.stats.Arrival); err != nil {
				return nil, fmt.Errorf("sim: request %d (%s): %w; the paper assumes satisfiable requests", cl.index, cl.stats.Query, err)
			}
			// lead is the reader owner of the class the ledger put the request
			// in, if it joined one: only a sharing run files owners.
			switch lead := byClass[led.Class(cl.id)]; {
			case cfg.Channels > 1: // no reader: attendMultichannel plays the tuner
			case lead != nil:
				cl.lead, cl.reader = lead, lead.reader
			default:
				cl.reader = new(access.Reader)
				cl.reader.Init(cl.q.nav, 1, cl)
				cl.reader.WholeTier = cfg.WholeTierRead
				if share {
					byClass[cl.id] = cl // the request starts its class
				}
			}
			active = append(active, cl)
			admitted++
		}
		if len(active) == 0 {
			return nil, fmt.Errorf("sim: no active clients but %d incomplete", len(clients)-completed)
		}

		var end int64
		var firstTier func(*client) (int64, error) // K > 1: a client's first-tier read
		cy, retired, err := led.Air(now, func(cy *engine.Cycle, enc *engine.Encoded) error {
			if cfg.CycleSink != nil {
				cfg.CycleSink(cy, enc)
			}
			// The clients read channel 0's frames, decoded once for all of them:
			// on a single channel the whole cycle, at K > 1 the first tier.
			fb := &frames[cy.Number%2]
			var err error
			if *fb, err = decodeAir((*fb)[:0], enc.Frames[0], cfg.Compress, cy.Index.Model); err != nil {
				return err
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
				Pending:          led.Len(),
			}
			for i := range cy.Channels {
				st.ChannelBytes = append(st.ChannelBytes, cy.Channels[i].Bytes)
			}
			single := len(cy.Channels) <= 1
			if single {
				st.DurationBytes = 0 // the frames' air: a compressed cycle's is its envelopes'
				for i := range *fb {
					st.DurationBytes += (*fb)[i].Air
				}
			} else {
				var head *wire.CycleHead
				for i := range *fb {
					switch f := &(*fb)[i]; f.Type {
					case wire.FrameCycleHead:
						head = f.Head
					case wire.FrameIndex:
						firstTier = func(cl *client) (int64, error) {
							_, _, cost, err := f.Read(head, cl.q.nav, cfg.WholeTierRead)
							return cost, err
						}
					}
				}
			}
			res.Cycles = append(res.Cycles, st)
			end = cy.Start + st.DurationBytes

			// Clients: attend the cycle, once the cycle before has been
			// attended. A lost reception costs tuning bytes but delivers
			// nothing: a lost first-tier read is retried next cycle, a lost
			// per-cycle index read skips this cycle's documents, and a
			// committed document not received is reported Missed.
			if err := fly.join(eng); err != nil {
				return err
			}
			if !single {
				for _, cl := range active {
					cl.commit = append(cl.commit[:0], led.Commitments(cl.id)...)
				}
			}
			leads := active
			if share {
				leads = leadsBuf[:0]
				for _, cl := range active {
					if cl.lead == nil {
						leads = append(leads, cl)
					}
				}
				leadsBuf = leads
			}
			start := cy.Start
			fly = attendance{num: cy.Number, clients: active, leads: leads, enc: enc, frames: fb, done: make(chan error, 1), single: single,
				attend: func(cl *client) error {
					if single {
						return attendFrames(cl, start, *fb)
					}
					return attendMultichannel(cl, cy, loss, firstTier)
				}}
			if overlap {
				go fly.run(loss)
				return nil
			}
			fly.run(loss)
			if err := fly.wait(); err != nil {
				return err
			}
			for _, cl := range active {
				for _, cm := range led.Commitments(cl.id) {
					if cl.lacks(cm.ID) {
						if err := led.Missed(cl.id, cm.ID); err != nil {
							return fmt.Errorf("sim: %w", err)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if loss != nil || led.Delivered() > 0 {
			barren = 0
		} else if barren++; barren == stallCycles {
			return nil, fmt.Errorf("sim: cycle %d delivered nothing to its %d pending requests, nor did the %d cycles before it: the run stalled", cy.Number, led.Len(), stallCycles-1)
		}
		next := spare[:0] // the clients still pending; both lists in ID order
		for _, cl := range active {
			if cl.served = len(retired) > 0 && retired[0] == cl.id; cl.served {
				retired = retired[1:]
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
			cl := byArrival[i]
			if cl.stats.Arrival >= end {
				break
			}
			if err := eavesdropCycle(cl, cy, loss, firstTier); err != nil {
				return nil, err
			}
		}
		now = end
	}
	if err := fly.join(eng); err != nil {
		return nil, err
	}

	res.Clients = make([]ClientStats, len(clients))
	for i, cl := range clients {
		if cl.lead != nil {
			cl.copyLead()
		}
		res.Clients[i] = cl.stats
	}
	res.Engine = eng.Metrics()
	return res, nil
}

// stallCycles is how many cycles in a row a lossless run may deliver nothing
// before it fails. Every document a K = 1 cycle plans is wanted by a pending
// request and received by it; at K > 1 a cycle can commit nothing to requests
// admitted for it, which all receive something the cycle after.
const stallCycles = 3

// shareReaders reports whether the clients the ledger admits into one class
// share one reader: a lossless single-channel run, whose readers follow the
// same course. A variable so tests can give every client its own reader on
// any run.
var shareReaders = func(cfg *Config) bool { return cfg.LossProb == 0 && cfg.Channels <= 1 }

// overlapCycles reports whether a run attends each cycle while the next
// assembles: a lossless run, whose clients receive everything the ledger
// commits to them and so report nothing Missed, and the ledger's commit need
// not wait for them. A variable so tests can force the serial order on any
// run.
var overlapCycles = func(cfg *Config) bool { return cfg.LossProb == 0 }

// attendance is one cycle's clients attending it. On an overlapped run they
// attend on a goroutine of their own while the next cycle assembles, reading
// the cycle's decoded frames, which stay valid until join hands them back.
// leads are the clients that read for themselves; the others share their
// readers.
type attendance struct {
	num     int64
	clients []*client
	leads   []*client
	enc     *engine.Encoded
	frames  *[]access.Frame
	attend  func(*client) error
	done    chan error // run's result until wait reads it
	single  bool       // a single-channel cycle: a client is done exactly when served
	err     error
}

// run attends the cycle for every client; it may run on its own goroutine.
func (a *attendance) run(loss *lossProcess) {
	a.done <- attendAll(a.leads, loss, a.attend)
}

// wait waits for the clients and returns the first one's error, in active
// order.
func (a *attendance) wait() error {
	if a.done != nil {
		if err := <-a.done; err != nil {
			a.err = fmt.Errorf("sim: cycle %d: %w", a.num, err)
		}
		a.done = nil
	}
	return a.err
}

// join waits for the clients, checks each against the ledger's commit of the
// cycle — a client whose request the commit retired holds its whole result
// set, and a single-channel client holds it only then (a multichannel client
// can finish ahead of the ledger's conservative commitment) — and hands the
// cycle's frames back to the engine.
func (a *attendance) join(eng *engine.Engine) error {
	if a.enc == nil {
		return nil // nothing attending, or joined already
	}
	if err := a.wait(); err != nil {
		return err
	}
	for _, cl := range a.clients {
		if done := cl.done(); done != cl.served && (a.single || cl.served) {
			return fmt.Errorf("sim: cycle %d: client %d done %v, the server believes it served %v", a.num, cl.index, done, cl.served)
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
// a single tuner. The ledger's set for the request shrinks by the cycle's
// commitment to it (cl.commit); the client executes that commitment for the
// documents it still needs (no commitment is ever starved; what it does not
// receive is reported Missed after the cycle) and then fills the tuner's gaps
// with opportunistic catches: documents the conservative commitment skipped
// but that a client already holding the directory — e.g. one that synced
// mid-cycle on an index repetition — can still receive.
func attendMultichannel(cl *client, cy *broadcast.Cycle, loss *lossProcess, firstTier func(*client) (int64, error)) error {
	if len(cl.needed) == 0 {
		return nil // already complete; the ledger drains its set unattended
	}
	cl.stats.CyclesListened++
	cl.stats.IndexTuningBytes += int64(cy.DirBytes)
	ready, indexOK := cy.DirEnd(), !loss.fail()
	if !cl.knowsDocs { // the first listen: the first tier follows the directory
		cost, err := firstTier(cl)
		if err != nil {
			return err
		}
		cl.stats.IndexTuningBytes += cost
		ready, cl.knowsDocs = cy.IndexEnd(), !loss.fail()
		indexOK = indexOK && cl.knowsDocs
	}
	if !indexOK {
		return nil // lost the directory or the first tier: nothing received this cycle
	}

	var busy []broadcast.AirInterval
	download := func(cm broadcast.Commitment) {
		busy = append(busy, broadcast.AirInterval{Start: cm.Start, End: cm.End})
		cl.stats.DocTuningBytes += int64(cm.Size)
		if !loss.fail() {
			cl.receive(cm.ID, cm.End)
		}
	}
	extra := slices.Clone(cl.needed)
	for _, cm := range cl.commit {
		if !xmldoc.HasID(cl.needed, cm.ID) {
			continue // already caught earlier; the tuner stays free
		}
		extra = xmldoc.RemoveID(extra, cm.ID)
		if cm.Start < ready {
			continue // committed before this client could act on the directory (a lost earlier first-tier read)
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
			continue // still in the ledger's set; rescheduled
		}
		cl.stats.EavesdropDocs++
		cl.receive(cm.ID, cm.End)
	}
	return nil
}
