package netcast

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/netcast/transport"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// MuxConfig parameterises DialMux.
type MuxConfig struct {
	// Compress requests per-frame DEFLATE on the uplink; granted only if
	// the server enables compression too.
	Compress bool
	// AckTimeout bounds the handshake's wait for the server's hello reply
	// and each logical client's wait for its ack. Zero selects the Submit
	// default.
	AckTimeout time.Duration
	// Clock supplies the logical clients' ack timeouts and backoff waits
	// (SubmitRetry). Nil selects the wall clock.
	Clock control.Clock
}

// Mux multiplexes many logical clients over one uplink TCP connection:
// each LogicalClient's frames carry its varint stream ID, a per-stream
// flow-control credit (granted by the server's hello) bounds how many
// frames one stream may have in flight, and a writer goroutine drains the
// streams' queues in fair round-robin so a chatty stream cannot starve the
// rest. This is how a load generator drives tens of thousands of clients
// over a handful of sockets, and it is the only uplink there is: a Client
// submits on the one stream of a private Mux.
//
// The Mux itself is safe for concurrent use; each LogicalClient serves one
// goroutine.
type Mux struct {
	conn       net.Conn
	enc        *transport.Encoder // owned by the writer goroutine
	bw         *bufio.Writer      // owned by the writer goroutine
	credit     int
	compress   bool
	ackTimeout time.Duration
	clock      control.Clock

	mu      sync.Mutex
	streams map[int64]*LogicalClient
	order   []*LogicalClient // round-robin scan order
	nextID  int64
	failErr error
	closed  bool

	notify   chan struct{} // pokes the writer when a queue gains a frame
	done     chan struct{} // closed on failure or Close
	failOnce sync.Once
	wg       sync.WaitGroup

	// unknown counts frames for unknown (closed or never-opened) stream
	// IDs; they are dropped, never misdelivered.
	unknown atomic.Int64
}

// muxResp is one uplink response delivered to a logical client.
type muxResp struct {
	t       wire.FrameType
	payload []byte
}

// LogicalClient is one multiplexed client: it submits queries over its
// mux's shared connection under its own stream ID and flow-control window.
// Not safe for concurrent use (like Client).
type LogicalClient struct {
	mux *Mux
	id  int64

	sendq  chan []byte   // encoded inner frames awaiting the round-robin drain
	resp   chan muxResp  // responses dispatched by the reader
	tokens chan struct{} // flow-control window; one token per in-flight frame

	// rng seeds this logical client's backoff jitter — per-client, so ten
	// thousand streams backing off concurrently neither race on a shared
	// source nor jitter in lockstep.
	rng *rand.Rand

	coveredFrom uint32
	closed      bool

	// late counts requests that timed out before their response arrived;
	// that many responses are still due ahead of the next request's.
	late int
}

// DialMux opens a multiplexed uplink to a server. The hello handshake
// negotiates compression (if both sides want it) and learns the per-stream
// credit, waiting at most cfg.AckTimeout for the server's reply; Open then
// mints logical clients.
func DialMux(uplinkAddr string, cfg MuxConfig) (*Mux, error) {
	if cfg.AckTimeout == 0 {
		cfg.AckTimeout = defaultAckTimeout
	}
	return dialMux(uplinkAddr, cfg)
}

// dialMux is DialMux with cfg taken as given: a zero AckTimeout leaves the
// handshake unbounded, the meaning Client.AckTimeout gives it.
func dialMux(uplinkAddr string, cfg MuxConfig) (*Mux, error) {
	conn, err := net.DialTimeout("tcp", uplinkAddr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("netcast: dial uplink: %w", err)
	}
	if err := transport.WriteHello(conn, transport.Hello{Compress: cfg.Compress, Mux: true}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netcast: uplink hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, downlinkBufSize)
	if cfg.AckTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(cfg.AckTimeout))
	}
	grant, err := transport.ReadHello(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("netcast: uplink hello reply: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if !grant.Mux {
		conn.Close()
		return nil, fmt.Errorf("netcast: server refused multiplexing")
	}
	m := &Mux{
		conn:       conn,
		enc:        transport.NewEncoder(grant.Compress, 0),
		bw:         bufio.NewWriterSize(conn, downlinkBufSize),
		credit:     max(int(grant.Credit), 1),
		compress:   grant.Compress,
		ackTimeout: cfg.AckTimeout,
		clock:      control.Or(cfg.Clock),
		streams:    make(map[int64]*LogicalClient),
		notify:     make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	m.wg.Add(2)
	go m.readLoop(br)
	go m.writeLoop()
	return m, nil
}

// Credit reports the per-stream flow-control window the server granted.
func (m *Mux) Credit() int { return m.credit }

// Compressed reports whether the uplink negotiated per-frame DEFLATE.
func (m *Mux) Compressed() bool { return m.compress }

// UnknownFrames reports responses dropped for carrying an unknown stream ID.
func (m *Mux) UnknownFrames() int64 { return m.unknown.Load() }

// Open mints a new logical client on the mux.
func (m *Mux) Open() (*LogicalClient, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("netcast: mux closed")
	}
	if m.failErr != nil {
		return nil, fmt.Errorf("netcast: mux failed: %w", m.failErr)
	}
	lc := &LogicalClient{
		mux:    m,
		id:     m.nextID,
		sendq:  make(chan []byte, m.credit),
		resp:   make(chan muxResp, m.credit),
		tokens: make(chan struct{}, m.credit),
		rng:    newClientRand(),
	}
	m.nextID++
	for i := 0; i < m.credit; i++ {
		lc.tokens <- struct{}{}
	}
	m.streams[lc.id] = lc
	m.order = append(m.order, lc)
	return lc, nil
}

// Close tears the mux down: every logical client's pending Submit fails.
func (m *Mux) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.fail(errors.New("netcast: mux closed"))
	m.wg.Wait()
}

// fail records the first fatal error, wakes every waiter and kills the
// connection. The uplink is drop-and-redial by protocol convention, so any
// read or write failure fails the whole mux.
func (m *Mux) fail(err error) {
	m.failOnce.Do(func() {
		m.mu.Lock()
		m.failErr = err
		m.mu.Unlock()
		close(m.done)
		m.conn.Close()
	})
}

// Err reports the error that failed the mux, nil while it is healthy.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil // deliberate Close is not a failure
	}
	return m.failErr
}

// writeLoop drains the logical clients' send queues in fair round-robin —
// at most one frame per stream per pass — encoding each inner frame into a
// stream-stamped transport envelope. The buffered writer flushes only when
// every queue is empty, so bursts from many streams batch into large
// writes.
func (m *Mux) writeLoop() {
	defer m.wg.Done()
	for {
		wrote := false
		m.mu.Lock()
		order := m.order
		m.mu.Unlock()
		for _, lc := range order {
			select {
			case inner := <-lc.sendq:
				env, err := m.enc.Encode(lc.id, inner)
				if err != nil {
					m.fail(err)
					return
				}
				if _, err := m.bw.Write(env); err != nil {
					m.fail(err)
					return
				}
				wrote = true
			default:
			}
		}
		if wrote {
			continue // another fair pass while queues are non-empty
		}
		if err := m.bw.Flush(); err != nil {
			m.fail(err)
			return
		}
		select {
		case <-m.notify:
		case <-m.done:
			return
		}
	}
}

// kick pokes the writer after an enqueue.
func (m *Mux) kick() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// readLoop dispatches responses to their streams by ID. Unknown streams
// are counted and dropped; a response beyond a stream's credit window is a
// protocol violation, also dropped. Any read failure fails the whole mux.
func (m *Mux) readLoop(br *bufio.Reader) {
	defer m.wg.Done()
	tr := transport.NewReader(br)
	for {
		fr, err := tr.Next()
		if err != nil {
			m.fail(err)
			return
		}
		t, payload, derr := decodeInner(fr.Inner)
		if derr != nil {
			m.fail(derr)
			return
		}
		m.mu.Lock()
		lc := m.streams[fr.Stream]
		m.mu.Unlock()
		if lc == nil {
			m.unknown.Add(1)
			continue
		}
		select {
		case lc.resp <- muxResp{t: t, payload: payload}:
		default:
			m.unknown.Add(1)
		}
	}
}

// ID is the logical client's stream ID on the shared connection.
func (lc *LogicalClient) ID() int64 { return lc.id }

// CoveredFrom reports the first cycle number whose index covers the most
// recently submitted query, as acked by the server.
func (lc *LogicalClient) CoveredFrom() int64 { return int64(lc.coveredFrom) }

// Close detaches the logical client from its mux; later responses for its
// stream are dropped as unknown. The shared connection stays up.
func (lc *LogicalClient) Close() {
	if lc.closed {
		return
	}
	lc.closed = true
	m := lc.mux
	m.mu.Lock()
	delete(m.streams, lc.id)
	for i, o := range m.order {
		if o == lc {
			m.order = append(append([]*LogicalClient(nil), m.order[:i]...), m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
}

// Submit sends one query under this stream's ID and waits for its ack,
// spending one flow-control credit for the round trip. Mirrors
// Client.Submit's semantics (including RejectedError on admission refusal).
func (lc *LogicalClient) Submit(q xpath.Path) error {
	covered, _, err := lc.submit(q, lc.mux.ackTimeout, lc.mux.clock)
	if err != nil {
		return err
	}
	lc.coveredFrom = covered
	return nil
}

// SubmitRetry submits q, waiting out admission-control rejections with the
// server's retry-after hint (clamped and jittered from this logical
// client's own rand source) until admitted, a non-overload error occurs,
// or the context expires.
func (lc *LogicalClient) SubmitRetry(ctx context.Context, q xpath.Path) error {
	return submitRetry(ctx, lc.mux.clock, lc.rng, func() error { return lc.Submit(q) })
}

// submit is the one query submission of both client types: a round trip
// of q's wire.FrameQuery, returning the acked covering cycle and durable
// request ID.
func (lc *LogicalClient) submit(q xpath.Path, timeout time.Duration, clk control.Clock) (covered uint32, id int64, err error) {
	r, err := lc.roundTrip(wire.FrameQuery, []byte(q.String()), timeout, clk)
	if err != nil {
		return 0, 0, fmt.Errorf("netcast: submit: %w", err)
	}
	return parseSubmitAck(r.t, r.payload)
}

// roundTrip sends one frame on lc's stream and returns the server's
// response, spending one flow-control credit for the exchange and waiting at
// most timeout on clk (zero: no limit) for both the credit and the response.
//
// The server answers a stream's frames in order, so a response that arrives
// after its request timed out answers that request, not the next one: lc
// counts the timed-out requests and discards that many responses ahead of
// its own, each returning the credit its request spent.
func (lc *LogicalClient) roundTrip(t wire.FrameType, payload []byte, timeout time.Duration, clk control.Clock) (muxResp, error) {
	m := lc.mux
	var expire <-chan time.Time
	if timeout > 0 {
		expire = clk.After(timeout)
	}
	var late <-chan muxResp // a late response frees a credit too
	if lc.late > 0 {
		late = lc.resp
	}
	select {
	case <-lc.tokens:
	case <-late:
		lc.late-- // its credit passes straight to this request
	case <-m.done:
		return muxResp{}, lc.muxDead()
	case <-expire:
		return muxResp{}, fmt.Errorf("stream %d credit window exhausted", lc.id)
	}
	inner, err := wire.AppendFrame(nil, t, payload)
	if err != nil {
		lc.tokens <- struct{}{}
		return muxResp{}, err
	}
	select {
	case lc.sendq <- inner:
	case <-m.done:
		lc.tokens <- struct{}{}
		return muxResp{}, lc.muxDead()
	}
	m.kick()
	for {
		select {
		case r := <-lc.resp:
			lc.tokens <- struct{}{}
			if lc.late > 0 {
				lc.late--
				continue
			}
			return r, nil
		case <-m.done:
			return muxResp{}, lc.muxDead()
		case <-expire:
			// The response may still arrive; until it does, its credit
			// stays spent so the window keeps bounding what is in flight.
			lc.late++
			return muxResp{}, fmt.Errorf("stream %d ack timeout", lc.id)
		}
	}
}

// muxDead names the mux's fatal error for a failed logical-client call.
func (lc *LogicalClient) muxDead() error {
	lc.mux.mu.Lock()
	err := lc.mux.failErr
	lc.mux.mu.Unlock()
	if err == nil {
		err = errors.New("netcast: mux closed")
	}
	return err
}
