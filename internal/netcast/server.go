package netcast

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broadcast"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/netcast/transport"
	"repro/internal/schedule"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// ServerConfig parameterises a broadcast server.
type ServerConfig struct {
	// Collection is the document set. Required.
	Collection *xmldoc.Collection
	// Model fixes on-air widths. Zero selects the default.
	Model core.SizeModel
	// Mode selects one-tier or two-tier broadcast. Zero selects two-tier.
	Mode broadcast.Mode
	// IndexEncoding selects the first tier's wire layout: the node-pointer
	// stream (the zero value) or the succinct balanced-parentheses form,
	// which requires two-tier mode. The choice is stamped into every cycle
	// head, so clients negotiate per cycle.
	IndexEncoding core.IndexEncoding
	// Scheduler plans cycles. Nil selects schedule.LeeLo.
	Scheduler schedule.Scheduler
	// Channels is the number of parallel broadcast streams (K). Zero or one
	// selects the classic single-channel broadcast. With K > 1 (two-tier
	// mode only) the server binds K broadcast listeners — channel 0 carries
	// the cycle head, channel directory and first tier, channels 1..K-1
	// carry striped second tiers and documents — and each cycle is fanned
	// out channel by channel (protocol version 3; see ChannelAddrs).
	Channels int
	// CycleCapacity is the per-cycle document budget in bytes. Required.
	CycleCapacity int
	// CycleInterval is the wall-clock period of the cycle ticker: each tick
	// airs one cycle if requests are pending and nothing otherwise, so a
	// submission waits up to one interval for its covering cycle. Default
	// 50 ms.
	CycleInterval time.Duration
	// UplinkAddr and BroadcastAddr are TCP listen addresses; use ":0" (or
	// "127.0.0.1:0") to pick free ports.
	UplinkAddr, BroadcastAddr string
	// UplinkIdleTimeout drops uplink connections with no traffic for this
	// long, so dead clients cannot pin server goroutines. Default 60 s;
	// negative disables the deadline.
	UplinkIdleTimeout time.Duration
	// SubscriberQueue is the per-subscriber outgoing queue, counted in
	// cycles: each cycle queues one batch per channel. A subscriber whose
	// queue overflows (stalled beyond what the queue and write deadline
	// absorb) is dropped; clients reconnect and resync. Default 20 cycles:
	// about 256 frames at the ≈ 12 frames of a paced two-tier cycle.
	SubscriberQueue int
	// Probe receives engine pipeline telemetry in addition to the built-in
	// collector surfaced by Stats. Optional. Its callbacks run on the server's
	// cycle loop, the one goroutine that drives the engine, and the loop waits
	// for them, so they must not call the server back.
	Probe engine.Probe
	// Limits bounds engine memory (see engine.Limits).
	// The zero value imposes no limits.
	Limits engine.Limits
	// MaxPending is the server's cap on the pending set, checked at
	// admission only (engine.Ledger.Admit): a submission arriving while the
	// set holds MaxPending requests is refused with wire.FrameReject before
	// any resolution work. Requests already pending — a restart may recover more
	// than the cap — always air. Zero means unlimited, but a journaled server
	// holds at most journal.MaxDeliveries.
	MaxPending int
	// UplinkRate is the per-connection sustained submission rate in
	// queries per second, enforced by a token bucket of UplinkBurst
	// capacity; queries beyond the budget are refused with wire.FrameReject
	// carrying a retry-after hint. Zero disables rate limiting.
	UplinkRate float64
	// UplinkBurst is the token-bucket burst size. Default 8 when
	// UplinkRate is set.
	UplinkBurst int
	// Clock drives the uplink token buckets. Nil selects the wall clock;
	// tests inject control.Fake.
	Clock control.Clock
	// StateDir enables crash-safe durability: admissions and cycle commits
	// are journaled to an append-only CRC-framed log under this directory
	// (compacted by periodic snapshots), submissions are acked only after
	// the admit record is durable, and a server restarted on the same
	// directory recovers the pending set, request-ID counter and cycle
	// number it had committed — so no acked request is ever lost and
	// assembly resumes from the last committed cycle. Empty runs the
	// classic in-memory server.
	StateDir string
	// Fsync fsyncs the journal on every append. Without it appends are
	// still flushed to the OS per record (a killed process loses nothing
	// acked), but a power failure can lose the unsynced tail. Ignored
	// without StateDir.
	Fsync bool
	// SnapshotEvery is the number of journal records between compacting
	// checkpoints. Zero selects journal.DefaultSnapshotEvery; negative
	// disables automatic checkpoints. Ignored without StateDir.
	SnapshotEvery int
	// Compress enables the transport layer on the downlink: every broadcast
	// stream opens with a transport hello and carries per-frame DEFLATE
	// envelopes (frames below the size floor, and frames deflate cannot
	// shrink, ship raw inside the envelope). The engine builds every
	// envelope (engine.Config.Compress) and the identical bytes go to every
	// subscriber; a document's envelope stays in the engine's payload
	// cache, so it is compressed once per cache lifetime, not once per
	// airing. Uplink compression is granted to clients that request it in
	// their hello.
	// Off, not a single downlink byte differs from the bare protocol.
	Compress bool
	// MuxCredit is the per-stream flow-control window granted to
	// multiplexed uplink connections (how many frames one logical client
	// may have in flight unanswered). Default 32. Note that UplinkRate
	// still applies per TCP connection, so a rate-limited mux carrying
	// thousands of logical clients shares one bucket.
	MuxCredit int
}

// defaultMuxCredit is the per-stream flow-control window granted to mux
// uplinks when ServerConfig.MuxCredit is zero.
const defaultMuxCredit = 32

// subWriteTimeout bounds each write to one subscriber: one cycle's batch.
const subWriteTimeout = 2 * time.Second

// Server is a running broadcast station. Create with StartServer, stop with
// Shutdown.
type Server struct {
	cfg   ServerConfig
	clock control.Clock

	// eng owns cycle assembly, the memoized query answers and the dynamic
	// collection; ledger owns the request lifecycle — admission, each cycle's
	// snapshot and commit, document removal — and writes every journal
	// record. Neither takes a lock: once StartServer returns, only the cycle
	// loop calls them, and every other goroutine hands it an event (see do).
	eng    *engine.Engine
	ledger *engine.Ledger

	upLn net.Listener
	// bcLns holds one broadcast listener per channel; single-channel servers
	// have exactly one.
	bcLns []net.Listener

	// downHello is the pre-encoded transport hello every subscriber stream
	// of a compressing server opens with; nil without ServerConfig.Compress.
	// The envelopes themselves are the engine's (engine.Config.Compress).
	downHello []byte

	// jn is the durability journal; nil without ServerConfig.StateDir. The
	// ledger writes its records; the server only closes, kills or arms it.
	// epoch and generation identify this journal lineage and restart in the
	// session-resume handshake (both zero on an in-memory server). recovered
	// counts pending requests restored at startup.
	jn         *journal.Journal
	epoch      uint64
	generation uint32
	recovered  int

	// events carries work for the cycle loop, which runs each event between
	// two cycles and hands it the error that stopped the broadcast, if any.
	events chan func(stopped error)

	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	uplinks map[net.Conn]struct{}
	// dropped counts subscribers evicted for a full queue or a failed write.
	dropped int64
	// draining gates the uplink during Shutdown and Kill: a frame that arrives
	// once it is set is refused with a retry-after reject instead of a dropped
	// connection. inflight counts the frames being processed, so that Shutdown
	// writes (and journals) their acks before it stops the cycle loop. A frame
	// joins inflight under mu, and only while draining is unset, so no Add
	// follows the start of Shutdown's Wait.
	draining bool
	inflight sync.WaitGroup

	rejectedRate    atomic.Int64
	rejectedPending atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{} // closed when cycleLoop returns (in-flight cycle flushed)
	done     chan struct{}
	wg       sync.WaitGroup
}

// ServerStats is a point-in-time snapshot of a running server, including the
// assembly engine's pipeline telemetry.
type ServerStats struct {
	// Cycles is the number of broadcast cycles emitted so far.
	Cycles int64
	// Pending is the number of outstanding requests.
	Pending int
	// Subscribers is the number of connected broadcast listeners.
	Subscribers int
	// SubscribersDropped counts listeners the server evicted: for a full
	// queue, or a write that failed or outran its deadline.
	SubscribersDropped int64
	// RejectedRate counts uplink queries refused by per-connection rate
	// limiting; RejectedPending counts queries refused by the global
	// pending-set cap (ServerConfig.MaxPending).
	RejectedRate, RejectedPending int64
	// Engine holds per-stage wall times and sizes, answer-cache hit rate
	// and eviction counters from the shared assembly engine.
	Engine engine.Metrics
	// Epoch and Generation identify the durability journal's lineage and
	// restart count (1 = fresh state directory); zero on an in-memory
	// server. RecoveredPending counts requests restored from the journal at
	// startup.
	Epoch            uint64
	Generation       uint32
	RecoveredPending int
	// CycleError is the fatal cycle-assembly error that stopped the
	// broadcast: nothing airs any more and every submission is refused with
	// it. Empty while the broadcast is healthy, and once the server has shut
	// down.
	CycleError string
}

// subscriber is one broadcast listener: each cycle's frames for its channel
// are queued as one batch to a buffered channel and written by a dedicated
// goroutine, so one stalled connection cannot delay the cycle loop or the
// other subscribers.
type subscriber struct {
	conn net.Conn
	// ch holds whole cycles, the engine's frames (engine.Encoded), shared
	// by every subscriber of the channel and never written.
	ch chan net.Buffers
	// channel is the broadcast channel this listener subscribed to (by
	// dialing its address); always 0 on a single-channel server.
	channel int
	// out is the writer's reused copy of the batch: WriteTo consumes (and
	// on TCP nils) the slice it is called on, so it runs on unsent, a copy
	// of out's header kept as a field so it does not escape per batch.
	out, unsent net.Buffers
	quitOnce    sync.Once
}

// finish closes the subscriber's queue exactly once; its writer goroutine
// writes what remains, then closes the connection.
func (sub *subscriber) finish() {
	sub.quitOnce.Do(func() { close(sub.ch) })
}

// write puts one batch on the connection — one writev on TCP, straight from
// the shared slices — under one deadline.
func (sub *subscriber) write(batch net.Buffers) error {
	_ = sub.conn.SetWriteDeadline(time.Now().Add(subWriteTimeout))
	sub.out = append(sub.out[:0], batch...)
	sub.unsent = sub.out
	_, err := sub.unsent.WriteTo(sub.conn)
	return err
}

// StartServer binds the uplink and broadcast listeners and starts the cycle
// loop.
func StartServer(cfg ServerConfig) (*Server, error) {
	if cfg.Collection == nil || cfg.Collection.Len() == 0 {
		return nil, fmt.Errorf("netcast: ServerConfig.Collection is required")
	}
	if cfg.CycleCapacity <= 0 {
		return nil, fmt.Errorf("netcast: ServerConfig.CycleCapacity must be positive")
	}
	for _, d := range cfg.Collection.Docs() {
		if err := checkDocFits(d); err != nil {
			return nil, err
		}
	}
	if cfg.Mode == 0 {
		cfg.Mode = broadcast.TwoTierMode
	}
	if cfg.Channels == 0 {
		cfg.Channels = 1
	}
	if cfg.CycleInterval == 0 {
		cfg.CycleInterval = 50 * time.Millisecond
	}
	if cfg.UplinkAddr == "" {
		cfg.UplinkAddr = "127.0.0.1:0"
	}
	if cfg.BroadcastAddr == "" {
		cfg.BroadcastAddr = "127.0.0.1:0"
	}
	if cfg.UplinkIdleTimeout == 0 {
		cfg.UplinkIdleTimeout = 60 * time.Second
	}
	if cfg.SubscriberQueue <= 0 {
		cfg.SubscriberQueue = 20
	}
	if cfg.MuxCredit <= 0 {
		cfg.MuxCredit = defaultMuxCredit
	}
	if cfg.UplinkRate > 0 && cfg.UplinkBurst <= 0 {
		cfg.UplinkBurst = 8
	}
	eng, err := engine.New(engine.Config{
		Collection:    cfg.Collection,
		Model:         cfg.Model,
		Mode:          cfg.Mode,
		IndexEncoding: cfg.IndexEncoding,
		Scheduler:     cfg.Scheduler,
		Channels:      cfg.Channels,
		CycleCapacity: cfg.CycleCapacity,
		Probe:         cfg.Probe,
		Limits:        cfg.Limits,
		Compress:      cfg.Compress,
	})
	if err != nil {
		return nil, err
	}
	var (
		jn *journal.Journal
		st = &journal.State{}
	)
	if cfg.StateDir != "" {
		jn, st, err = journal.Open(journal.Options{
			Dir:           cfg.StateDir,
			Fsync:         cfg.Fsync,
			SnapshotEvery: cfg.SnapshotEvery,
		})
		if err != nil {
			return nil, err
		}
	}
	ledger, err := engine.NewLedger(eng, jn, st)
	if err != nil {
		jn.Close() // only a journal append fails NewLedger
		return nil, err
	}
	upLn, err := net.Listen("tcp", cfg.UplinkAddr)
	if err != nil {
		if jn != nil {
			jn.Close()
		}
		return nil, fmt.Errorf("netcast: uplink listen: %w", err)
	}
	// One broadcast listener per channel: channel 0 binds the configured
	// address, data channels bind ephemeral ports on the same host (a fixed
	// configured port cannot be shared by K listeners).
	bcLns := make([]net.Listener, 0, cfg.Channels)
	closeAll := func() {
		upLn.Close()
		for _, ln := range bcLns {
			ln.Close()
		}
		if jn != nil {
			jn.Close()
		}
	}
	for c := 0; c < cfg.Channels; c++ {
		addr := cfg.BroadcastAddr
		if c > 0 {
			host, _, err := net.SplitHostPort(bcLns[0].Addr().String())
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("netcast: broadcast listen: %w", err)
			}
			addr = net.JoinHostPort(host, "0")
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("netcast: broadcast listen (channel %d): %w", c, err)
		}
		bcLns = append(bcLns, ln)
	}
	s := &Server{
		cfg:        cfg,
		clock:      control.Or(cfg.Clock),
		eng:        eng,
		ledger:     ledger,
		upLn:       upLn,
		bcLns:      bcLns,
		jn:         jn,
		epoch:      st.Epoch,
		generation: st.Generation,
		recovered:  ledger.Len(),
		subs:       make(map[*subscriber]struct{}),
		uplinks:    make(map[net.Conn]struct{}),
		events:     make(chan func(error)),
		stop:       make(chan struct{}),
		loopDone:   make(chan struct{}),
		done:       make(chan struct{}),
	}
	if cfg.Compress {
		var hb bytes.Buffer
		if err := transport.WriteHello(&hb, transport.Hello{Compress: true}); err != nil {
			closeAll()
			return nil, err
		}
		s.downHello = hb.Bytes()
	}
	s.wg.Add(2 + len(bcLns))
	go s.acceptUplink()
	for c, ln := range bcLns {
		go s.acceptSubscribers(ln, c)
	}
	go s.cycleLoop()
	go func() {
		s.wg.Wait()
		close(s.done)
	}()
	return s, nil
}

// UplinkAddr is the bound uplink address.
func (s *Server) UplinkAddr() string { return s.upLn.Addr().String() }

// Epoch reports the durability journal's lineage ID (zero on an in-memory
// server). It survives restarts on the same state directory, so clients can
// tell a restarted server from a different one.
func (s *Server) Epoch() uint64 { return s.epoch }

// Generation reports the restart generation: 1 on a fresh state directory,
// +1 per recovery. Zero on an in-memory server.
func (s *Server) Generation() uint32 { return s.generation }

// RecoveredPending reports how many pending requests were restored from the
// journal at startup.
func (s *Server) RecoveredPending() int { return s.recovered }

// BroadcastAddr is the bound broadcast address (channel 0: the only stream
// on a single-channel server, the index channel otherwise).
func (s *Server) BroadcastAddr() string { return s.bcLns[0].Addr().String() }

// ChannelAddrs lists every channel's bound broadcast address in channel
// order: entry 0 is the index channel (same as BroadcastAddr), entries
// 1..K-1 the data channels. Single-channel servers return one address.
func (s *Server) ChannelAddrs() []string {
	out := make([]string, len(s.bcLns))
	for i, ln := range s.bcLns {
		out[i] = ln.Addr().String()
	}
	return out
}

// Channels reports the number of broadcast channels.
func (s *Server) Channels() int { return len(s.bcLns) }

// errStopped refuses a write that reaches the server after its cycle loop
// has exited.
var errStopped = errors.New("netcast: server stopped")

// do runs f on the cycle loop, between two cycles, and returns f's error; f
// is handed the error that stopped the broadcast, if one did. Once the loop
// has exited, do runs nothing and returns errStopped.
func (s *Server) do(f func(stopped error) error) error {
	var err error
	done := make(chan struct{})
	select {
	case s.events <- func(stopped error) { err = f(stopped); close(done) }:
		<-done
		return err
	case <-s.loopDone:
		return errStopped
	}
}

// read runs f as do does, or on the caller once the loop has exited: nothing
// changes the ledger or the engine after that.
func (s *Server) read(f func(stopped error)) {
	if s.do(func(stopped error) error { f(stopped); return nil }) != nil {
		f(nil)
	}
}

// Cycles reports how many cycles have been broadcast.
func (s *Server) Cycles() (n int64) {
	s.read(func(error) { n = s.ledger.Cycles() })
	return n
}

// Pending reports the number of outstanding requests.
func (s *Server) Pending() (n int) {
	s.read(func(error) { n = s.ledger.Len() })
	return n
}

// Stats snapshots the server's counters and the assembly engine's pipeline
// telemetry, all read in one turn of the cycle loop.
func (s *Server) Stats() ServerStats {
	st := ServerStats{Epoch: s.epoch, Generation: s.generation, RecoveredPending: s.recovered}
	s.read(func(stopped error) {
		st.Cycles, st.Pending, st.Engine = s.ledger.Cycles(), s.ledger.Len(), s.eng.Metrics()
		if stopped != nil {
			st.CycleError = stopped.Error()
		}
		st.RejectedRate, st.RejectedPending = s.rejectedRate.Load(), s.rejectedPending.Load()
		s.mu.Lock()
		st.Subscribers, st.SubscribersDropped = len(s.subs), s.dropped
		s.mu.Unlock()
	})
	return st
}

// Shutdown stops the server gracefully: uplink frames already being
// processed are admitted and get their acks (new ones are refused with a
// retry-after reject, never a dropped connection mid-ack), the cycle loop
// finishes and flushes the in-flight cycle to every subscriber queue, the
// journal closes with a flushed, fsynced snapshot, then the listeners and
// every connection close. Safe to call more than once and from multiple
// goroutines; every call waits for the full teardown.
func (s *Server) Shutdown() {
	s.stopOnce.Do(func() {
		// Drain the uplink while the cycle loop still runs: frames
		// mid-processing are admitted by the loop and write their acks, so
		// every acked submission is journaled.
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.upLn.Close()
		s.inflight.Wait()
		// Then let an in-flight broadcastCycle finish enqueueing its frames
		// (and its journal commit) before the subscriber queues are closed.
		close(s.stop)
		<-s.loopDone
		if s.jn != nil {
			s.jn.Close()
		}
		s.closeConns()
	})
	<-s.done
}

// Kill is the crash-test teardown: the SIGKILL equivalent of Shutdown. The
// journal dies first — in place, with no final snapshot, flush or fsync —
// freezing durable state at exactly what prior appends already pushed to the
// OS, then the goroutines and connections are torn down so tests do not leak
// them. A server restarted on the same StateDir recovers what a machine
// losing this process would have recovered. Safe to call more than once.
func (s *Server) Kill() {
	s.stopOnce.Do(func() {
		if s.jn != nil {
			s.jn.Kill()
		}
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		close(s.stop)
		<-s.loopDone
		s.upLn.Close()
		s.closeConns()
	})
	<-s.done
}

// closeConns is the tail both teardowns share: the broadcast listeners
// close, then every subscriber queue finishes and every uplink connection
// closes.
func (s *Server) closeConns() {
	for _, ln := range s.bcLns {
		ln.Close()
	}
	s.mu.Lock()
	subs := make([]*subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	uplinks := make([]net.Conn, 0, len(s.uplinks))
	for c := range s.uplinks {
		uplinks = append(uplinks, c)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		sub.finish()
	}
	for _, c := range uplinks {
		c.Close()
	}
}

// Crash simulates the process dying from inside the assembly pipeline — the
// entry point a chaos.Crasher probe calls on the cycle-loop goroutine. The
// journal is killed synchronously at the call site, freezing durable state
// at exactly what prior appends pushed to the OS (the in-flight cycle's
// commit fails and is lost, as a real kill would lose it), while the rest of
// the teardown runs asynchronously: Kill waits on the cycle loop, which may
// be the very goroutine calling Crash. Safe to call more than once; callers
// that need the teardown complete follow with Kill, which waits.
func (s *Server) Crash() {
	if s.jn != nil {
		s.jn.Kill()
	}
	go s.Kill()
}

// CrashJournalAfter arms a torn-write crash: the journal accepts n more
// bytes of appended records and then dies mid-frame, leaving a torn record
// tail on disk exactly as a process killed mid-write would. The append that
// exceeds the budget fails, so the submission or cycle commit riding it is
// refused and the cycle loop stops; callers follow with Kill and restart a
// server on the same StateDir to exercise recovery's tail truncation.
// No-op on an in-memory server.
func (s *Server) CrashJournalAfter(n int64) {
	if s.jn != nil {
		s.jn.CrashAfter(n)
	}
}

// acceptUplink serves request submissions.
func (s *Server) acceptUplink() {
	defer s.wg.Done()
	for {
		conn, err := s.upLn.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveUplink(conn)
	}
}

// serveUplink handles one uplink connection. It must open with a transport
// hello, which the server grants (compression only if the server enables it
// too, plus the per-stream flow-control credit); a connection that opens
// with anything else is closed unanswered. Then QUERY and RESUME frames come
// in on many logical streams, each tagged by a varint stream ID, and every
// response — ACK, REJECT or RESUMEACK — goes out on its request's stream. An
// idle deadline reaps dead clients; a token bucket sheds per-connection
// floods without dropping the connection. Responses batch in a buffered
// writer that flushes whenever the read side would block, so fan-in
// throughput scales with pipelining depth while a lone query still acks
// promptly.
func (s *Server) serveUplink(conn net.Conn) {
	defer s.wg.Done()
	s.mu.Lock()
	s.uplinks[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.uplinks, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var bucket *tokenBucket
	if s.cfg.UplinkRate > 0 {
		bucket = newTokenBucket(s.cfg.UplinkRate, s.cfg.UplinkBurst, s.clock.Now())
	}
	br := bufio.NewReaderSize(conn, downlinkBufSize)
	if s.cfg.UplinkIdleTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.UplinkIdleTimeout))
	}
	h, err := transport.ReadHello(br)
	if err != nil {
		return
	}
	grant := transport.Hello{
		Compress: h.Compress && s.cfg.Compress,
		Mux:      h.Mux,
		Credit:   uint32(s.cfg.MuxCredit),
	}
	_ = conn.SetWriteDeadline(time.Now().Add(subWriteTimeout))
	if err := transport.WriteHello(conn, grant); err != nil {
		return
	}
	_ = conn.SetWriteDeadline(time.Time{})
	tr := transport.NewReader(br)
	enc := transport.NewEncoder(grant.Compress, 0)
	bw := bufio.NewWriterSize(conn, downlinkBufSize)
	respond := func(stream int64, t wire.FrameType, payload []byte) error {
		inner, err := wire.AppendFrame(nil, t, payload)
		if err != nil {
			return err
		}
		env, err := enc.Encode(stream, inner)
		if err != nil {
			return err
		}
		_ = conn.SetWriteDeadline(time.Now().Add(subWriteTimeout))
		if _, err := bw.Write(env); err != nil {
			return err
		}
		if br.Buffered() == 0 {
			// Nothing more to read without blocking: put the batched
			// responses on the wire before waiting.
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		_ = conn.SetWriteDeadline(time.Time{})
		return nil
	}
	for {
		if s.cfg.UplinkIdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.UplinkIdleTimeout))
		}
		fr, err := tr.Next()
		if err != nil {
			// Corrupt frame, idle timeout or disconnect: drop the connection
			// and let the client redial. Corruption here means the client
			// side is broken (TCP already ordered the bytes), so guessing at
			// framing buys nothing.
			return
		}
		t, payload, derr := decodeInner(fr.Inner)
		if derr != nil {
			return
		}
		// The frame is in flight from here: Shutdown waits for its response
		// (and any journal append) before it stops the cycle loop. A frame
		// that arrives once the drain has started is refused with a
		// retry-after hint instead of a dropped connection.
		s.mu.Lock()
		draining := s.draining
		if !draining {
			s.inflight.Add(1)
		}
		s.mu.Unlock()
		if draining {
			_ = respond(fr.Stream, wire.FrameReject, encodeReject(s.cfg.CycleInterval, "server shutting down"))
			_ = bw.Flush()
			return
		}
		rt, resp, drop := s.uplinkRespond(t, payload, bucket)
		err = respond(fr.Stream, rt, resp)
		s.inflight.Done()
		if err != nil {
			return
		}
		if drop {
			_ = bw.Flush()
			return
		}
	}
}

// uplinkRespond computes the response to one uplink frame: admission
// control, journaling and session resume. drop reports a protocol
// violation: the response is still written, then the connection dies.
func (s *Server) uplinkRespond(t wire.FrameType, payload []byte, bucket *tokenBucket) (rt wire.FrameType, resp []byte, drop bool) {
	switch t {
	case wire.FrameResume:
		ids, derr := decodeResume(payload)
		if derr != nil {
			return wire.FrameAck, []byte("err: " + derr.Error()), false
		}
		ack, aerr := encodeResumeAck(s.epoch, s.generation, s.resumeEntries(ids))
		if aerr != nil {
			return wire.FrameAck, []byte("err: " + aerr.Error()), false
		}
		return wire.FrameResumeAck, ack, false
	case wire.FrameQuery:
		if bucket != nil {
			if wait := bucket.take(s.clock.Now()); wait > 0 {
				s.rejectedRate.Add(1)
				return wire.FrameReject, encodeReject(wait, "rate limited"), false
			}
		}
		covered, id, err := s.submit(string(payload))
		switch {
		case err == nil:
			// The ack names the covering cycle and the durable request ID
			// the client presents on session resume.
			return wire.FrameAck, []byte(fmt.Sprintf("ok:%d:%d", covered, id)), false
		case errors.Is(err, engine.ErrOverload):
			s.rejectedPending.Add(1)
			// The cap frees up as cycles retire requests, so the next cycle
			// boundary is the natural retry point.
			return wire.FrameReject, encodeReject(s.cfg.CycleInterval, "pending set full"), false
		default:
			return wire.FrameAck, []byte("err: " + err.Error()), false
		}
	default:
		return wire.FrameAck, []byte("err: unexpected frame"), true
	}
}

// resumeEntries answers one session-resume handshake: for every presented
// request ID, whether it is still pending (no resubmit needed; detail names
// the next cycle, which covers every pending request), was served within the
// journal's horizon (detail names the retiring cycle), or must be
// resubmitted.
func (s *Server) resumeEntries(ids []int64) []resumeEntry {
	entries := make([]resumeEntry, 0, len(ids))
	s.read(func(error) {
		for _, id := range ids {
			e := resumeEntry{ID: id, Status: ResumeResubmit}
			switch pending, served, cyc := s.ledger.Lookup(id); {
			case pending:
				e.Status, e.Detail = ResumeResumed, cyc
			case served:
				e.Status, e.Detail = ResumeServed, cyc
			}
			entries = append(entries, e)
		}
	})
	return entries
}

// submit registers one query through the ledger, on the cycle loop, and
// returns the number of the first broadcast cycle whose index is guaranteed
// to cover it plus the request's durable ID. A stopped broadcast refuses it (a
// request admitted now would never air), and so does a pending set at
// ServerConfig.MaxPending or, journaled, at journal.MaxDeliveries, with a
// wrapped engine.ErrOverload. On a journaled server the admit record is
// durable before submit returns, so the caller's ack never outruns the
// journal: a crash after the ack recovers the request.
func (s *Server) submit(expr string) (covered, id int64, err error) {
	q, err := xpath.Parse(strings.TrimSpace(expr))
	if err != nil {
		return 0, 0, err
	}
	err = s.do(func(stopped error) (err error) {
		if stopped != nil {
			return fmt.Errorf("broadcast stopped: %w", stopped)
		}
		covered, id, err = s.ledger.Admit(q, s.cfg.MaxPending, s.ledger.Cycles())
		return err
	})
	return covered, id, err
}

// acceptSubscribers registers broadcast listeners on one channel's listener,
// each with its own writer goroutine.
func (s *Server) acceptSubscribers(ln net.Listener, channel int) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		sub := &subscriber{conn: conn, ch: make(chan net.Buffers, s.cfg.SubscriberQueue), channel: channel}
		// Shutdown and Kill close stop before they snapshot subs under mu, so
		// a connection accepted after the teardown began is either in that
		// snapshot or refused here — never a writer nobody will finish.
		s.mu.Lock()
		select {
		case <-s.stop:
			s.mu.Unlock()
			conn.Close()
			continue
		default:
		}
		s.subs[sub] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveSubscriber(sub)
	}
}

// serveSubscriber writes the transport hello, if any, then one subscriber's
// queued batches onto its connection. It exits when the queue is closed (drop
// or shutdown) or a write fails; a failed write evicts the subscriber.
func (s *Server) serveSubscriber(sub *subscriber) {
	defer s.wg.Done()
	var err error
	if s.downHello != nil {
		err = sub.write(net.Buffers{s.downHello})
	}
	if err == nil {
		for batch := range sub.ch {
			if err = sub.write(batch); err != nil {
				break
			}
		}
	}
	s.mu.Lock()
	if _, ok := s.subs[sub]; ok {
		delete(s.subs, sub)
		if err != nil {
			s.dropped++
		}
	}
	s.mu.Unlock()
	sub.conn.Close()
}

// cycleLoop is the one goroutine that drives the ledger and the engine. It
// serves events (admissions, resume lookups, document writes, reads) in the
// order they arrive, and every CycleInterval it airs one cycle if requests
// are pending: assemble, air and commit in one turn, so no event lands inside
// a cycle. A submission never triggers a cycle; it joins the next tick's
// snapshot.
func (s *Server) cycleLoop() {
	defer s.wg.Done()
	defer close(s.loopDone)
	ticker := time.NewTicker(s.cfg.CycleInterval)
	defer ticker.Stop()
	tick := ticker.C
	// stopped is the fatal cycle error that ended the broadcast. Cycle
	// assembly failures are design errors: nothing airs any more, but the
	// loop keeps serving events — Stats reports the error, resume lookups
	// answer, and submissions are refused with it.
	var stopped error
	for {
		select {
		case <-s.stop:
			return
		case ev := <-s.events:
			ev(stopped)
		case <-tick:
			if stopped = s.broadcastCycle(); stopped != nil {
				tick = nil
			}
		}
	}
}

// broadcastCycle plans, encodes and fans out one cycle through the shared
// assembly engine. On a journaled server the whole cycle commits as one
// record once it is queued, so recovery resumes at the next cycle with
// exactly the pending set the commit leaves; a crash before it re-airs the
// cycle from the unchanged state.
func (s *Server) broadcastCycle() error {
	_, _, err := s.ledger.Air(s.ledger.Cycles(), s.airCycle)
	return err
}

// airCycle puts one encoded cycle on air: each channel's frames, exactly as
// the engine framed them, are queued once to that channel's subscribers. The
// frames are retained by subscriber queues, so they are never recycled here;
// the GC reclaims them once every writer is done.
func (s *Server) airCycle(_ *engine.Cycle, enc *engine.Encoded) error {
	for c, frames := range enc.Frames {
		s.enqueue(c, frames)
	}
	return nil
}

// enqueue queues one cycle's batch for one channel, the identical slices, to
// every subscriber of that channel. A subscriber whose queue is full has
// stalled past what its queue and write deadline absorb; it is dropped so the
// broadcast never blocks on one receiver.
func (s *Server) enqueue(channel int, batch net.Buffers) {
	s.mu.Lock()
	subs := make([]*subscriber, 0, len(s.subs))
	for sub := range s.subs {
		if sub.channel == channel {
			subs = append(subs, sub)
		}
	}
	s.mu.Unlock()
	for _, sub := range subs {
		select {
		case sub.ch <- batch:
		default:
			s.mu.Lock()
			if _, ok := s.subs[sub]; ok {
				delete(s.subs, sub)
				s.dropped++
			}
			s.mu.Unlock()
			sub.finish()
			// Unblock a writer stuck mid-write; its cleanup
			// tolerates the double Close.
			sub.conn.Close()
		}
	}
}

// checkDocFits refuses a document that could never air: its wire.FrameDoc
// payload is two ID bytes and the marshalled text, and a frame carries at
// most wire.MaxFramePayload bytes. Admitted, it would be scheduled and listed
// in the second tier of a cycle that cannot be framed.
func checkDocFits(d *xmldoc.Document) error {
	if d == nil {
		return nil // the engine refuses it
	}
	if n := 2 + d.Size(); n > wire.MaxFramePayload {
		return fmt.Errorf("netcast: document %d needs a frame payload of %d bytes, limit %d", d.ID, n, wire.MaxFramePayload)
	}
	return nil
}

// AddDocument admits a new document to the live collection; it becomes
// visible to queries and schedulable from the next cycle. The engine patches
// its cached answers, so a submission after this returns sees the document
// without a re-resolve; a journaled server records the grown
// collection's fingerprint so recovery can detect drift. A document too large
// for one frame is refused, with nothing changed.
func (s *Server) AddDocument(d *xmldoc.Document) error {
	if err := checkDocFits(d); err != nil {
		return err
	}
	return s.do(func(error) error { return s.ledger.AddDocument(d) })
}

// RemoveDocument retires a document from the live collection. Pending
// requests lose the document from their remaining sets; requests thereby
// satisfied are retired. A journaled server records the removal, whose
// replay shrinks recovered remaining sets the same way.
func (s *Server) RemoveDocument(id xmldoc.DocID) error {
	return s.do(func(error) error { return s.ledger.RemoveDocument(id) })
}

// NumDocs reports the current collection size.
func (s *Server) NumDocs() (n int) {
	s.read(func(error) { n = s.eng.NumDocs() })
	return n
}
