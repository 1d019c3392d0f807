package netcast

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/succinct"
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
	// TuningBytes counts bytes the client actually downloaded: index
	// segments, second tiers and matching documents.
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

// Retrieve follows the access protocol over the broadcast stream until every
// result document of q has been received, returning the parsed documents in
// ID order. The context bounds the wait.
//
// One loop serves every channel count. Per cycle the single tuner reads the
// index channel — cycle head, then the first tier until the result set is
// known (two-tier) or every cycle (one-tier) — and then the documents: on a
// single-channel broadcast they follow on the same stream, located by the
// second tier (or the one-tier offsets); on K > 1 channels the channel
// directory locates them and the tuner hops to each data channel carrying
// one, in channel order, draining shares of cycles it has run ahead of as
// doze.
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
	r := &retrieval{
		c:   c,
		q:   q,
		nav: core.NewNavigator(q),
		got: make(map[xmldoc.DocID]*xmldoc.Document),
	}
	err := r.run(ctx)
	for _, cs := range c.chans {
		_ = cs.conn.SetReadDeadline(time.Time{})
	}
	// The resubmit-queue and resume counters are client-lifetime totals;
	// stamp them on whatever stats this retrieval returns.
	r.stats.Resubmits = c.resubmits
	r.stats.ResubmitDropped = c.resubDrops
	r.stats.Resumed = c.resumedCnt
	if err != nil {
		return nil, r.stats, err
	}
	return collect(r.got), r.stats, nil
}

// retrieval is the state of one Retrieve call. The query state survives
// every recovery; a recovery voids what the tuner knew of the stream it was
// on, which on the index channel is the whole cycle.
type retrieval struct {
	c     *Client
	q     xpath.Path
	stats ClientStats

	nav       *core.Navigator
	knowsDocs bool           // the result set is known (two-tier: first tier already read)
	remaining []xmldoc.DocID // result documents not yet received; sorted, distinct
	got       map[xmldoc.DocID]*xmldoc.Document

	cycleState
	streamState
	cur int // the channel the single tuner is on
}

// cycleState is what the index channel said about the current cycle: its
// head, its channel directory (K > 1 only), the documents to catch in it and
// the data channels carrying them.
type cycleState struct {
	head   *wire.CycleHead
	dir    []wire.ChannelDirEntry
	want   map[xmldoc.DocID]struct{}
	onChan []bool
}

// streamState is where the tuner stands on the channel it is on: synced once
// it has seen a cycle boundary there (frames before one are dozed) and, on a
// data channel, how many documents of the current share are still to come
// and whether that share is stale — of an earlier cycle than head's.
type streamState struct {
	synced   bool
	docsLeft int
	stale    bool
}

// boundary is the frame type that starts a cycle's share on every stream of
// this client: the channel head on a multichannel broadcast, the cycle head
// on a single stream.
func (r *retrieval) boundary() wire.FrameType {
	if len(r.c.chans) > 1 {
		return wire.FrameChannelHead
	}
	return wire.FrameCycleHead
}

// run reads frames off the tuned channel until the remaining set drains.
func (r *retrieval) run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ch := r.cur
		cs := r.c.chans[ch]
		armIdle(ctx, cs.conn)
		fr, err := cs.src.next()
		r.stats.DozeBytes += cs.src.takeDoze()
		if err == nil {
			err = r.handle(fr)
		}
		if err != nil {
			if err := r.recover(ctx, ch, err); err != nil {
				return err
			}
			continue
		}
		// The retrieval is complete as soon as the remaining set drains —
		// including right after index decode when the query's result set was
		// already fully received, so a zero-remaining client returns
		// immediately instead of spinning until the context deadline.
		if r.knowsDocs && len(r.remaining) == 0 {
			return nil
		}
	}
}

// handle applies one frame to the protocol state. An error satisfying
// wire.IsCorrupt means the frame (or its place in the stream) made no sense.
func (r *retrieval) handle(fr airFrame) error {
	// Dozed unread: anything before the stream's first cycle boundary, and the
	// index channel's frame types straying onto a data channel (cycle state is
	// only ever taken from channel 0).
	indexOnly := fr.t == wire.FrameCycleHead || fr.t == wire.FrameChannelDir || fr.t == wire.FrameIndex
	if (!r.synced && fr.t != r.boundary()) || (r.cur != 0 && indexOnly) {
		r.stats.DozeBytes += fr.air
		return nil
	}
	switch fr.t {
	case wire.FrameChannelHead:
		return r.onChannelHead(fr)
	case wire.FrameCycleHead:
		h, err := wire.DecodeCycleHead(fr.payload)
		if err != nil {
			return wire.ErrFrameCorrupt
		}
		r.head, r.want, r.synced = h, nil, true
		r.stats.Cycles++
	case wire.FrameChannelDir:
		r.stats.TuningBytes += fr.air
		dir, err := wire.DecodeChannelDir(fr.payload, r.c.model)
		if err != nil {
			return wire.ErrFrameCorrupt
		}
		r.dir = dir
	case wire.FrameIndex:
		return r.onIndex(fr)
	case wire.FrameSecondTier:
		if r.cur != 0 || !r.knowsDocs {
			// A data channel's stripe repeats what the directory already
			// said; before the result set is known there is nothing to look up.
			r.stats.DozeBytes += fr.air
			return nil
		}
		r.stats.TuningBytes += fr.air
		entries, err := wire.DecodeSecondTier(fr.payload, r.c.model)
		if err != nil {
			return wire.ErrFrameCorrupt
		}
		r.want = make(map[xmldoc.DocID]struct{})
		for _, e := range entries {
			if xmldoc.HasID(r.remaining, e.Doc) {
				r.want[e.Doc] = struct{}{}
			}
		}
	case wire.FrameDoc:
		return r.onDoc(fr)
	default:
		// A checksum-valid frame of unknown type means version skew or a
		// scan that locked onto the wrong boundary; resynchronise.
		return wire.ErrFrameCorrupt
	}
	return nil
}

// onChannelHead starts one channel's share of a multichannel cycle. On the
// index channel that is a new cycle. On a data channel the share is taken if
// it belongs to the cycle being collected, dozed if it is older, and left
// unread for the next visit if the stream is already past that cycle (it
// redialled ahead; the wanted documents stay in remaining for a rebroadcast).
func (r *retrieval) onChannelHead(fr airFrame) error {
	h, err := wire.DecodeChannelHead(fr.payload)
	if err != nil || int(h.Channel) != r.cur || r.docsLeft > 0 {
		// Undecodable, wrong stream (wire.DecodeChannelHead ties the role to the
		// channel number, so this covers a mis-roled head too), or the last
		// share ended short.
		return wire.ErrFrameCorrupt
	}
	r.synced = true
	switch {
	case r.cur == 0:
		r.cycleState = cycleState{}
	case h.Number > r.head.Number:
		r.c.chans[r.cur].src.unread(fr)
		r.hop()
	default:
		r.docsLeft, r.stale = int(h.NumDocs), h.Number < r.head.Number
	}
	return nil
}

// onIndex handles the index segment: the first tier is read once, from the
// first cycle covering the submission (two-tier), or every cycle (one-tier,
// whose embedded offsets change). On a multichannel cycle it closes the
// index channel's share, so the hops are planned here.
func (r *retrieval) onIndex(fr airFrame) error {
	if r.head == nil || (r.head.TwoTier && r.knowsDocs) || r.head.Number < r.c.coveredFrom {
		r.stats.DozeBytes += fr.air
	} else {
		r.stats.TuningBytes += fr.air
		docs, offs, err := r.c.decodeAndNavigate(fr.payload, r.head, r.nav)
		if err != nil {
			return wire.ErrFrameCorrupt
		}
		if !r.knowsDocs {
			for _, d := range docs {
				if _, done := r.got[d]; !done {
					r.remaining = xmldoc.InsertID(r.remaining, d)
				}
			}
			r.knowsDocs = true
		}
		if !r.head.TwoTier {
			r.want = make(map[xmldoc.DocID]struct{})
			for d := range offs {
				if xmldoc.HasID(r.remaining, d) {
					r.want[d] = struct{}{}
				}
			}
		}
	}
	if r.dir == nil || r.head == nil {
		return nil
	}
	r.want = make(map[xmldoc.DocID]struct{})
	r.onChan = make([]bool, len(r.c.chans))
	for _, e := range r.dir {
		if !xmldoc.HasID(r.remaining, e.Doc) {
			continue
		}
		if e.Channel == 0 || int(e.Channel) >= len(r.onChan) {
			return wire.ErrFrameCorrupt
		}
		r.want[e.Doc] = struct{}{}
		r.onChan[e.Channel] = true
	}
	r.hop()
	return nil
}

// hop moves the tuner to the next data channel carrying a wanted document
// this cycle, or back to the index channel when none is left.
func (r *retrieval) hop() {
	next := 0
	for ch := r.cur + 1; ch < len(r.onChan); ch++ {
		if r.onChan[ch] {
			next = ch
			break
		}
	}
	r.cur, r.streamState = next, streamState{}
}

// onDoc handles one document frame: wanted documents are parsed and retired,
// the rest dozed.
func (r *retrieval) onDoc(fr airFrame) error {
	if len(fr.payload) < 2 {
		return wire.ErrFrameCorrupt
	}
	id := xmldoc.DocID(binary.LittleEndian.Uint16(fr.payload))
	if _, want := r.want[id]; !want || r.stale {
		r.stats.DozeBytes += fr.air
	} else {
		// On the bare protocol the 2 ID bytes are header, not content; a
		// transport envelope is atomic, so its whole air cost counts.
		cost := fr.air
		if !r.c.chans[r.cur].src.isTransport() {
			cost -= 2
		}
		r.stats.TuningBytes += cost
		root, err := xmldoc.ParseBytes(fr.payload[2:])
		if err != nil {
			return wire.ErrFrameCorrupt
		}
		r.got[id] = xmldoc.NewDocument(id, root)
		r.remaining = xmldoc.RemoveID(r.remaining, id)
		delete(r.want, id)
	}
	if r.cur != 0 {
		if r.docsLeft--; r.docsLeft == 0 && !r.stale {
			r.hop() // this channel's share of the cycle is through
		}
	}
	return nil
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
	r.streamState = streamState{}
	if ch == 0 {
		r.cycleState = cycleState{}
	}
	if wire.IsCorrupt(err) {
		r.stats.Resyncs++
		c.resubmit(r.q)
		fr, skipped, err := cs.src.resync(r.boundary())
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

// decodeAndNavigate decodes an index segment and runs the client's query
// automaton over it, returning the result doc IDs and (one-tier) offsets.
// Under the succinct encoding the segment is navigated in place with a
// cursor — no core.Index is ever materialized client-side.
func (c *Client) decodeAndNavigate(seg []byte, head *wire.CycleHead, nav *core.Navigator) ([]xmldoc.DocID, wire.DocOffsets, error) {
	ix, st, offs, err := decodeIndexSeg(seg, head, c.model)
	if err != nil {
		return nil, nil, err
	}
	if st != nil {
		return st.NewCursor().Lookup(nav.Filter()), nil, nil
	}
	return nav.Lookup(ix).Docs, offs, nil
}

// decodeIndexSeg decodes a cycle's index segment as its head describes it:
// the head's catalog, the tier its organisation names, its root labels. A
// succinct first tier comes back parsed but not materialized (st); any other
// index decoded (ix), with the document offsets a one-tier index embeds.
func decodeIndexSeg(seg []byte, head *wire.CycleHead, m core.SizeModel) (ix *core.Index, st *succinct.Tier, offs wire.DocOffsets, err error) {
	cat, err := wire.DecodeCatalog(head.Catalog)
	if err != nil {
		return nil, nil, nil, err
	}
	if head.Succinct {
		st, err = succinct.Parse(seg, m, cat)
		return nil, st, nil, err
	}
	tier := core.OneTier
	if head.TwoTier {
		tier = core.FirstTier
	}
	if ix, offs, err = wire.DecodeIndex(seg, m, tier, cat); err != nil {
		return nil, nil, nil, err
	}
	if err := wire.ApplyRootLabels(ix, head.RootLabels); err != nil {
		return nil, nil, nil, err
	}
	return ix, nil, offs, nil
}

// collect returns the received documents sorted by ID.
func collect(got map[xmldoc.DocID]*xmldoc.Document) []*xmldoc.Document {
	ids := make([]int, 0, len(got))
	for id := range got {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]*xmldoc.Document, 0, len(ids))
	for _, id := range ids {
		out = append(out, got[xmldoc.DocID(id)])
	}
	return out
}
