package netcast

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/access"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// RejectedError reports a query refused by the server's admission control
// (wire.FrameReject): the uplink is healthy and the query was valid, the server
// is just shedding load. It matches errors.Is(err, engine.ErrOverload), so
// callers distinguish overload from network failure and back off instead of
// redialing.
type RejectedError struct {
	// RetryAfter is the server's hint for when to retry.
	RetryAfter time.Duration
	// Reason is the server's human-readable explanation.
	Reason string
}

// Error implements error.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("netcast: server rejected query: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// Is reports overload identity so errors.Is(err, engine.ErrOverload) works.
func (e *RejectedError) Is(target error) bool { return target == engine.ErrOverload }

// ClientStats accounts one retrieval, mirroring the simulator's metrics on
// the real byte stream.
type ClientStats struct {
	// TuningBytes counts the air the client tuned into, as the paper counts
	// tuning time: the index as its lookup touched it (the packets of the
	// node stream, the blob bytes of the succinct tier, a compressed index's
	// whole envelope), the second tiers and channel directories, and the
	// matching documents. For the same air it is the simulator's
	// IndexTuningBytes + DocTuningBytes.
	TuningBytes int64
	// DozeBytes counts broadcast bytes the client slept through (frames it
	// skipped without reading their payloads into the protocol), plus bytes
	// discarded while rescanning for a frame boundary after corruption.
	DozeBytes int64
	// Cycles is the number of cycle heads observed.
	Cycles int
	// Resyncs counts mid-stream recoveries: a corrupt, truncated or
	// undecodable frame made the client drop its cycle state and rescan the
	// byte stream for the next cycle head.
	Resyncs int
	// Reconnects counts broadcast connections re-established after the
	// downlink dropped mid-retrieval.
	Reconnects int
	// Resubmits counts queries re-registered over the uplink after a resync
	// or reconnect; ResubmitDropped counts queries evicted oldest-first from
	// the bounded resubmit queue during a long outage. Resumed counts
	// queries the session-resume handshake re-attached without a resubmit.
	// All three are client-lifetime totals, not per-retrieval deltas.
	Resubmits, ResubmitDropped, Resumed int64
}

// Reconnect backoff bounds: the delay starts at reconnectBaseDelay, doubles
// per failed dial up to reconnectMaxDelay, and each wait adds up to 50%
// random jitter so a fleet of clients dropped together doesn't redial in
// lockstep.
const (
	reconnectBaseDelay = 25 * time.Millisecond
	reconnectMaxDelay  = 2 * time.Second
)

// downlinkBufSize sizes the broadcast-side read buffer (also the window the
// resync scanner works within).
const downlinkBufSize = 64 << 10

// resubmitQueueCap bounds the queries waiting for re-registration while the
// uplink is down. During a long outage every resync/reconnect attempt wants
// to re-register; without a bound the queue would grow with outage length.
// Oldest entries are dropped first — they are the most likely to have been
// served (or re-enqueued again) by the time the uplink returns.
const resubmitQueueCap = 32

// defaultAckTimeout bounds Submit's wait for the server's ack.
const defaultAckTimeout = 10 * time.Second

// idleResubmitTimeout bounds how long a retrieval waits on a silent
// downlink before treating the stream as lost. An on-demand server airs
// nothing when its pending set is empty, so a client whose request was
// retired while it was desynchronised (the server sent the documents; the
// channel ate them) would otherwise block forever on a healthy-but-silent
// connection — no frames means no corruption to resync on. The rolling
// deadline turns that silence into the normal reconnect path, whose
// re-registration makes the server air the documents again.
const idleResubmitTimeout = 3 * time.Second

// armIdle sets conn's read deadline idleResubmitTimeout from now, clamped
// to the retrieval context's own deadline. Re-armed before every frame
// read, so it fires only on a genuinely silent stream, not a slow cycle.
func armIdle(ctx context.Context, conn net.Conn) {
	dl := time.Now().Add(idleResubmitTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	_ = conn.SetReadDeadline(dl)
}

// chanStream is one channel's downlink: the connection, its frame source
// (which sniffs transport-layer compression per stream) and the redial
// target.
type chanStream struct {
	conn net.Conn
	src  *frameSource // buffered downlink; recreated on redial
	addr string
}

// Client is a mobile client: an uplink for submissions and one downlink
// subscription per broadcast channel. The uplink is the one stream of a
// private, uncompressed Mux, so a Client and a LogicalClient submit through
// the same round trip. A Client is not safe for concurrent use.
type Client struct {
	model  core.SizeModel
	up     *LogicalClient // nil on a listen-only client
	upAddr string         // redial target for recovery

	// chans holds the downlink streams in channel order: chans[0] is the
	// index channel, which on a single-channel broadcast is the only stream
	// and carries everything.
	chans []*chanStream

	// AckTimeout bounds how long Submit and Resume wait, on the wall clock,
	// for the server's ack before failing instead of hanging on a stalled
	// server, and how long a redial of the uplink waits for the hello
	// reply. Zero disables the deadline. Dial sets it to 10 s.
	AckTimeout time.Duration

	// Clock supplies every backoff wait: admission-control retries
	// (SubmitRetry, resubmits) and Retrieve's redials. Nil selects the wall clock;
	// tests inject control.Fake so backoff runs deterministically without
	// wall-clock sleeps.
	Clock control.Clock

	// coveredFrom is the first cycle number whose index covers the last
	// submitted query (from the server's ack); earlier cycles' indexes are
	// slept through during Retrieve.
	coveredFrom uint32

	// session tracks acked submissions (durable request IDs) for the
	// session-resume handshake.
	session *ClientSession

	// resubq queues queries whose re-registration failed while the uplink
	// was down, bounded at resubmitQueueCap with drop-oldest. The counters
	// surface through ClientStats.
	resubq     []xpath.Path
	resubmits  int64
	resubDrops int64
	resumedCnt int64

	// rng seeds this client's backoff jitter. Each client (and each
	// logical client behind a mux) owns its source: the shared global
	// would race under -race when thousands of logical clients back off
	// concurrently, and per-client streams keep jitter independent.
	rng *rand.Rand
}

// newClientRand returns a per-client jitter source, seeded from the global
// generator (the only use of the shared source, and a synchronised one).
func newClientRand() *rand.Rand {
	return rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
}

// jitter returns this client's backoff jitter source, created on first use
// so zero-value and test-constructed clients work.
func (c *Client) jitter() *rand.Rand {
	if c.rng == nil {
		c.rng = newClientRand()
	}
	return c.rng
}

// SessionEntry is one acked submission in a resumable session.
type SessionEntry struct {
	// ID is the server-assigned durable request ID from the ack.
	ID int64
	// Query is the canonical query string.
	Query string
}

// ClientSession is the client-side state of a resumable uplink session: the
// request IDs the server acked, plus the server identity from the last
// resume handshake. Extract it with Session before discarding a client and
// hand it to a new client (dialed at the restarted server's addresses) with
// AdoptSession to resume where the old session stopped.
type ClientSession struct {
	// Epoch and Generation are the server's journal lineage and restart
	// generation from the last wire.FrameResumeAck; zero before any resume.
	Epoch      uint64
	Generation uint32
	// Entries holds acked submissions in submission order, newest last.
	Entries []SessionEntry
}

// clone deep-copies the session.
func (s *ClientSession) clone() *ClientSession {
	if s == nil {
		return nil
	}
	out := *s
	out.Entries = append([]SessionEntry(nil), s.Entries...)
	return &out
}

// ResumeStatus is one query's disposition from a session-resume handshake.
type ResumeStatus struct {
	// ID and Query identify the presented request.
	ID    int64
	Query string
	// Status is the server's disposition: ResumeResumed, ResumeServed or
	// ResumeResubmit.
	Status byte
	// Detail is the covering cycle (resumed) or retiring cycle (served).
	Detail int64
	// NewID is the replacement request ID when Resume resubmitted the query
	// (Status == ResumeResubmit and the resubmission was acked); zero
	// otherwise.
	NewID int64
}

// Dial connects to a server's uplink and broadcast addresses.
func Dial(uplinkAddr, broadcastAddr string, model core.SizeModel) (*Client, error) {
	return DialChannels(uplinkAddr, []string{broadcastAddr}, model)
}

// DialChannels connects to a multichannel server: one uplink plus one
// downlink per broadcast channel, in the order reported by
// Server.ChannelAddrs (entry 0 must be the index channel). With a single
// address it is equivalent to Dial.
func DialChannels(uplinkAddr string, channelAddrs []string, model core.SizeModel) (*Client, error) {
	if len(channelAddrs) == 0 {
		return nil, fmt.Errorf("netcast: DialChannels needs at least one broadcast address")
	}
	if model == (core.SizeModel{}) {
		model = core.DefaultSizeModel()
	}
	up, err := dialUplink(uplinkAddr, defaultAckTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{model: model, up: up, upAddr: uplinkAddr, AckTimeout: defaultAckTimeout}
	for i, addr := range channelAddrs {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("netcast: dial broadcast channel %d: %w", i, err)
		}
		c.chans = append(c.chans, &chanStream{conn: conn, src: newFrameSource(conn), addr: addr})
	}
	return c, nil
}

// dialUplink opens a client's private uplink: a Mux that requests no
// compression, with the one stream the client submits on. ackTimeout bounds
// the hello handshake (zero: no bound).
func dialUplink(addr string, ackTimeout time.Duration) (*LogicalClient, error) {
	m, err := dialMux(addr, MuxConfig{AckTimeout: ackTimeout})
	if err != nil {
		return nil, err
	}
	lc, err := m.Open()
	if err != nil {
		m.Close()
		return nil, err
	}
	return lc, nil
}

// Close releases every connection.
func (c *Client) Close() {
	if c.up != nil {
		c.up.mux.Close()
	}
	for _, cs := range c.chans {
		cs.conn.Close()
	}
}

// Submit sends one query over the uplink and waits for the server's ack,
// for at most AckTimeout.
func (c *Client) Submit(q xpath.Path) error {
	covered, id, err := c.up.submit(q, c.AckTimeout, control.Real{})
	if err != nil {
		return err
	}
	c.recordSession(id, q.String())
	c.coveredFrom = covered
	return nil
}

// parseSubmitAck interprets one uplink response to a query submission: an
// ack "ok:<covered>:<id>" names the covering cycle and the durable request
// ID the client presents on session resume.
func parseSubmitAck(t wire.FrameType, payload []byte) (covered uint32, id int64, err error) {
	if t == wire.FrameReject {
		return 0, 0, rejectError(payload)
	}
	if t != wire.FrameAck {
		return 0, 0, fmt.Errorf("netcast: unexpected ack frame type %d", t)
	}
	msg := string(payload)
	if strings.HasPrefix(msg, "err:") {
		return 0, 0, fmt.Errorf("netcast: server rejected query: %s", strings.TrimSpace(msg[4:]))
	}
	rest, isOK := strings.CutPrefix(msg, "ok:")
	cov, idStr, _ := strings.Cut(rest, ":")
	n, cerr := strconv.ParseUint(cov, 10, 32)
	id, ierr := strconv.ParseInt(idStr, 10, 64)
	if !isOK || cerr != nil || ierr != nil {
		return 0, 0, fmt.Errorf("netcast: malformed ack %q", msg)
	}
	return uint32(n), id, nil
}

// rejectError decodes a wire.FrameReject payload into the RejectedError it
// reports.
func rejectError(payload []byte) error {
	retryAfter, reason, err := decodeReject(payload)
	if err != nil {
		return fmt.Errorf("netcast: reject: %w", err)
	}
	return &RejectedError{RetryAfter: retryAfter, Reason: reason}
}

// recordSession remembers an acked submission for session resumption. A
// resubmitted query replaces its older entry (the old ID is either retired
// or a duplicate registration), and the entry list is bounded at
// maxResumeIDs with drop-oldest so an endless query stream cannot grow it
// without bound.
func (c *Client) recordSession(id int64, query string) {
	if c.session == nil {
		c.session = &ClientSession{}
	}
	entries := c.session.Entries
	for i := range entries {
		if entries[i].Query == query {
			entries = append(entries[:i], entries[i+1:]...)
			break
		}
	}
	entries = append(entries, SessionEntry{ID: id, Query: query})
	if len(entries) > maxResumeIDs {
		entries = append(entries[:0], entries[len(entries)-maxResumeIDs:]...)
	}
	c.session.Entries = entries
}

// Session deep-copies the client's resumable session state: the acked
// request IDs and the last seen server identity. Nil until the first ack.
func (c *Client) Session() *ClientSession { return c.session.clone() }

// AdoptSession installs a session extracted from another client (typically
// one whose server restarted at new addresses), so Resume presents that
// session's request IDs.
func (c *Client) AdoptSession(s *ClientSession) { c.session = s.clone() }

// Resume runs the session-resume handshake: it presents every acked request
// ID over the uplink and applies the server's per-query dispositions —
// still-pending queries are re-attached with no resubmit (their covering
// cycle becomes CoveredFrom), already-served ones are reported for the
// caller to eavesdrop or resubmit, and unknown ones are resubmitted through
// the normal Submit path (their session entries pick up the new IDs).
// Returns the dispositions in presentation order.
func (c *Client) Resume() ([]ResumeStatus, error) {
	if c.session == nil || len(c.session.Entries) == 0 {
		return nil, nil
	}
	entries := c.session.Entries
	ids := make([]int64, len(entries))
	byID := make(map[int64]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
		byID[e.ID] = e.Query
	}
	payload, err := encodeResume(ids)
	if err != nil {
		return nil, err
	}
	r, err := c.up.roundTrip(wire.FrameResume, payload, c.AckTimeout, control.Real{})
	if err != nil {
		return nil, fmt.Errorf("netcast: resume: %w", err)
	}
	if r.t == wire.FrameReject {
		return nil, rejectError(r.payload)
	}
	if r.t != wire.FrameResumeAck {
		return nil, fmt.Errorf("netcast: unexpected resume ack frame type %d", r.t)
	}
	epoch, generation, srv, err := decodeResumeAck(r.payload)
	if err != nil {
		return nil, err
	}
	// The epoch ties a session to one journal lineage. A server answering
	// from a different lineage (state directory swapped behind the same
	// address) may coincidentally hold pending requests under the presented
	// IDs; its resumed/served claims describe someone else's queries, so
	// every entry degrades to a resubmit. A zero prior epoch means the
	// session never completed a handshake and has no lineage to defend.
	if prior := c.session.Epoch; prior != 0 && epoch != prior {
		for i := range srv {
			srv[i].Status, srv[i].Detail = ResumeResubmit, 0
		}
	}
	c.session.Epoch = epoch
	c.session.Generation = generation
	out := make([]ResumeStatus, 0, len(srv))
	for _, e := range srv {
		st := ResumeStatus{ID: e.ID, Query: byID[e.ID], Status: e.Status, Detail: e.Detail}
		switch e.Status {
		case ResumeResumed:
			// Still pending server-side: no resubmit, and the server names
			// the next cycle covering it.
			c.resumedCnt++
			c.coveredFrom = uint32(e.Detail)
		case ResumeResubmit:
			// Unknown to the server (fresh state directory, lost journal or
			// past the served horizon): re-register through the normal
			// submit path, which records the replacement ID.
			if q, perr := xpath.Parse(st.Query); perr == nil {
				if serr := c.Submit(q); serr == nil {
					c.resubmits++
					if n := len(c.session.Entries); n > 0 && c.session.Entries[n-1].Query == st.Query {
						st.NewID = c.session.Entries[n-1].ID
					}
				} else {
					c.queueResubmit(q)
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// CoveredFrom reports the first cycle number whose index covers the most
// recently submitted query, as acked by the server. It is the network
// protocol's arrival clock: a query acked with CoveredFrom k is scheduled
// exactly as a simulator request arriving at cycle k's start time.
func (c *Client) CoveredFrom() int64 { return int64(c.coveredFrom) }

// SubmitRetry submits q, honoring the server's admission control: each
// rejection is waited out for the server's retry-after hint (clamped to the
// reconnect backoff bounds, plus up to 50% jitter so a shedding server isn't
// re-flooded in lockstep) until the query is admitted, a non-overload error
// occurs, or the context expires.
func (c *Client) SubmitRetry(ctx context.Context, q xpath.Path) error {
	return submitRetry(ctx, control.Or(c.Clock), c.jitter(), func() error { return c.Submit(q) })
}

// submitRetry is SubmitRetry for both client types: it calls submit until
// it returns anything but a RejectedError, waiting out each rejection on clk
// for the jittered retry-after hint, or until ctx expires.
func submitRetry(ctx context.Context, clk control.Clock, rng *rand.Rand, submit func() error) error {
	for {
		err := submit()
		var rej *RejectedError
		if !errors.As(err, &rej) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clk.After(backoffJitter(rng, rej.RetryAfter)):
		}
	}
}

// backoffJitter clamps hint to the reconnect backoff bounds and adds up to
// 50% jitter from rng.
func backoffJitter(rng *rand.Rand, hint time.Duration) time.Duration {
	if hint < reconnectBaseDelay {
		hint = reconnectBaseDelay
	}
	if hint > reconnectMaxDelay {
		hint = reconnectMaxDelay
	}
	return hint + time.Duration(rng.Int64N(int64(hint)/2+1))
}

// Retrieve follows the access protocol (package access's reader, one tuner
// over every channel) over the broadcast until every result document of q
// has been received, returning the parsed documents in ID order. The context
// bounds the wait.
//
// Retrieve survives an unreliable downlink. A corrupt, truncated or
// undecodable frame rescans the failing stream for its next cycle boundary
// and, on the index channel, drops the current cycle's state (the protocol is
// self-describing; the next index re-covers the query). A failed read redials
// that channel with capped exponential backoff plus jitter, waited out on
// Clock. Both recoveries preserve the documents already received, and both
// resubmit q over the uplink so the server rebroadcasts anything the client
// may have missed (the server retires a request once its documents have been
// *sent*, not received). A downlink silent for idleResubmitTimeout is treated
// as lost the same way: an on-demand server with an empty pending set airs
// nothing, so silence after a missed delivery must trigger re-registration,
// not a longer wait.
func (c *Client) Retrieve(ctx context.Context, q xpath.Path) ([]*xmldoc.Document, ClientStats, error) {
	r := &retrieval{c: c, q: q}
	r.rd.Init(core.NewNavigator(q), len(c.chans), r)
	err := r.run(ctx)
	for _, cs := range c.chans {
		_ = cs.conn.SetReadDeadline(time.Time{})
	}
	st := r.rd.Stats()
	r.stats.TuningBytes = st.IndexTuning + st.DocTuning
	r.stats.DozeBytes += st.Doze
	r.stats.Cycles = st.Cycles
	// The resubmit-queue and resume counters are client-lifetime totals;
	// stamp them on whatever stats this retrieval returns.
	r.stats.Resubmits = c.resubmits
	r.stats.ResubmitDropped = c.resubDrops
	r.stats.Resumed = c.resumedCnt
	if err != nil {
		return nil, r.stats, err
	}
	slices.SortFunc(r.got, func(a, b *xmldoc.Document) int { return int(a.ID) - int(b.ID) })
	return r.got, r.stats, nil
}

// retrieval is one Retrieve call: the access protocol's reader, which keeps
// the query's state across every recovery, around the client's connections.
type retrieval struct {
	c     *Client
	q     xpath.Path
	rd    access.Reader
	f     access.Frame       // the frame being fed
	stats ClientStats        // the connection's counters; the reader keeps the rest
	got   []*xmldoc.Document // the reader hands each document over once
}

// Lost implements access.Sink: a frame that arrived intact was received.
func (r *retrieval) Lost() bool { return false }

// Receive implements access.Sink: a wanted document is parsed and kept.
func (r *retrieval) Receive(f *access.Frame) error {
	root, err := xmldoc.ParseBytes(f.Body)
	if err != nil {
		return wire.ErrFrameCorrupt
	}
	r.got = append(r.got, xmldoc.NewDocument(f.Doc, root))
	return nil
}

// run feeds the reader frames off the channel it is tuned to until the
// result set is received — right after the index, when it already was.
func (r *retrieval) run(ctx context.Context) error {
	for !r.rd.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		ch := r.rd.Channel()
		cs := r.c.chans[ch]
		armIdle(ctx, cs.conn)
		fr, err := cs.src.next()
		r.stats.DozeBytes += cs.src.takeDoze()
		if err == nil {
			err = r.feed(cs, fr)
		}
		if err != nil {
			if err := r.recover(ctx, ch, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// feed hands the reader one frame off cs, decoded unless the reader dozes it
// unread. On the bare protocol a frame's air is access.Air's; a transport
// envelope costs its wire size and is read whole. The query is covered from
// the cycle its latest registration's ack named: a resubmit moves it.
func (r *retrieval) feed(cs *chanStream, fr airFrame) error {
	air, whole := fr.air, cs.src.isTransport()
	if !whole {
		air = access.Air(fr.t, fr.payload, r.c.model)
	}
	if r.rd.Skip(fr.t, air) {
		return nil
	}
	var err error
	if r.f, err = access.Decode(fr.t, fr.payload, air, r.c.model); err != nil {
		return err
	}
	r.f.Whole, r.rd.CoveredFrom = whole, r.c.coveredFrom
	ahead, err := r.rd.Feed(&r.f)
	if ahead {
		cs.src.unread(fr)
	}
	return err
}

// recover repairs channel ch's stream after err and re-registers the query:
// detected corruption rescans the stream for its next cycle boundary (left
// unread for the loop), connection loss — or a rescan that hits an I/O error
// — redials with capped exponential backoff and jitter. Either way the tuner
// starts over on that stream, and a failure of the index channel drops the
// cycle with it; a data channel's failure costs only its own share (the
// directory still stands, so the hops go on). Received documents are kept.
func (r *retrieval) recover(ctx context.Context, ch int, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	c, cs := r.c, r.c.chans[ch]
	r.rd.Resync(ch)
	if wire.IsCorrupt(err) {
		r.stats.Resyncs++
		c.resubmit(r.q)
		fr, skipped, err := cs.src.resync(r.rd.Boundary())
		r.stats.DozeBytes += skipped
		if err == nil {
			cs.src.unread(fr)
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	cs.conn.Close()
	for delay := reconnectBaseDelay; ; delay = min(2*delay, reconnectMaxDelay) {
		conn, err := net.DialTimeout("tcp", cs.addr, 5*time.Second)
		if err == nil {
			cs.conn, cs.src = conn, newFrameSource(conn)
			r.stats.Reconnects++
			c.resubmit(r.q)
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("netcast: broadcast reconnect: %w", ctx.Err())
		case <-control.Or(c.Clock).After(backoffJitter(c.jitter(), delay)):
		}
	}
}

// resubmit re-registers q after a resync or reconnect: the server retires a
// request once its documents have been broadcast, so anything this client
// missed is only rebroadcast if the query is pending again. Best effort —
// if the uplink died with the downlink it is redialed once; queries whose
// re-registration still fails wait in a bounded drop-oldest queue and are
// flushed by the next recovery that finds the uplink healthy.
func (c *Client) resubmit(q xpath.Path) {
	if c.up == nil {
		return // listen-only client (e.g. capture replay); nothing to re-register
	}
	c.queueResubmit(q)
	c.flushResubmits()
}

// queueResubmit enqueues q for re-registration, dropping the oldest entry
// (counted in ClientStats.ResubmitDropped) when the queue is full. A query
// already queued is not duplicated.
func (c *Client) queueResubmit(q xpath.Path) {
	key := q.String()
	for _, p := range c.resubq {
		if p.String() == key {
			return
		}
	}
	if len(c.resubq) >= resubmitQueueCap {
		drop := len(c.resubq) - resubmitQueueCap + 1
		c.resubq = append(c.resubq[:0], c.resubq[drop:]...)
		c.resubDrops += int64(drop)
	}
	c.resubq = append(c.resubq, q)
}

// flushResubmits re-registers every queued query, oldest first, stopping at
// the first failure that means the uplink is down. A rejection (admission
// control; the uplink itself is healthy) is waited out once per flush with
// the server's retry-after hint; a network failure redials the uplink once.
// Whatever cannot be submitted stays queued for the next recovery.
func (c *Client) flushResubmits() {
	redialed, backedOff := false, false
	for len(c.resubq) > 0 {
		q := c.resubq[0]
		err := c.Submit(q)
		if err == nil {
			c.resubq = c.resubq[1:]
			c.resubmits++
			continue
		}
		var rej *RejectedError
		switch {
		case errors.As(err, &rej) && !backedOff:
			// The server is shedding load: honor the retry-after hint once
			// instead of redialing (which would only add connection churn
			// to an overloaded server).
			backedOff = true
			<-control.Or(c.Clock).After(backoffJitter(c.jitter(), rej.RetryAfter))
		case errors.As(err, &rej):
			return // still shedding after one wait; try again next recovery
		case !redialed:
			redialed = true
			up, derr := dialUplink(c.upAddr, c.AckTimeout)
			if derr != nil {
				return // uplink unreachable; the queue holds the backlog
			}
			c.up.mux.Close()
			c.up = up
		default:
			return // redialed and still failing
		}
	}
}
