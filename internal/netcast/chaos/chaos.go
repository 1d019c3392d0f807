// Package chaos injects deterministic, seedable faults — bit flips, byte
// drops (truncation), delays and connection kills — into net.Conn byte
// streams, net.Listeners and TCP proxies. It exists to prove the broadcast
// channel's recovery paths: tests wrap a server's downlink in a Proxy and
// assert that clients still retrieve exactly their result sets, just with
// more cycles, resyncs and reconnects.
//
// Fault decisions are a pure function of (Seed, connection number, byte
// position), so a given configuration corrupts the same stream positions on
// every run regardless of how the bytes are chunked by TCP.
package chaos

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises a fault injector. All probabilities are per byte of
// forwarded traffic; zero disables that fault.
type Config struct {
	// Seed makes every fault decision reproducible.
	Seed int64
	// FlipProb is the per-byte probability of flipping one of its bits —
	// in-place corruption that checksums must catch.
	FlipProb float64
	// DropProb is the per-byte probability of deleting the byte from the
	// stream — truncation that desynchronises length-prefixed framing.
	DropProb float64
	// KillProb is the per-byte probability of killing the connection after
	// forwarding the byte.
	KillProb float64
	// MaxDelay, when positive, sleeps a deterministic pseudo-random duration
	// in [0, MaxDelay) before forwarding each chunk.
	MaxDelay time.Duration
}

// Stats counts injected faults across all connections of a Proxy.
type Stats struct {
	// Conns is the number of connections fault-injected so far.
	Conns int64
	// Bytes is the number of bytes that passed through (before drops).
	Bytes int64
	// BitFlips, Drops and Kills count injected faults by kind.
	BitFlips int64
	Drops    int64
	Kills    int64
}

// counters aggregates fault counts with atomics so data paths never share a
// lock.
type counters struct {
	conns, bytes, flips, drops, kills atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Conns:    c.conns.Load(),
		Bytes:    c.bytes.Load(),
		BitFlips: c.flips.Load(),
		Drops:    c.drops.Load(),
		Kills:    c.kills.Load(),
	}
}

// splitmix64 is the SplitMix64 mixer; a full-avalanche hash of the input.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faulter applies Config faults to one direction of one connection. Fault
// decisions hash the absolute byte position, so they are independent of
// read/write chunk boundaries.
type faulter struct {
	cfg   Config
	key   uint64 // seed ⊕ connection number
	pos   uint64 // absolute position in the stream
	stats *counters
}

func newFaulter(cfg Config, connNum int64, stats *counters) *faulter {
	return &faulter{cfg: cfg, key: splitmix64(uint64(cfg.Seed)) ^ splitmix64(uint64(connNum)*0x9e3779b97f4a7c15), stats: stats}
}

// rand returns a uniform [0,1) float and a raw hash for the given stream
// position and decision lane.
func (f *faulter) rand(pos uint64, lane uint64) (float64, uint64) {
	h := splitmix64(f.key ^ splitmix64(pos*4+lane))
	return float64(h>>11) / float64(1<<53), h
}

// process applies faults to chunk in place, returning the bytes to forward
// and whether to kill the connection after forwarding them. The returned
// slice aliases chunk.
func (f *faulter) process(chunk []byte) (out []byte, kill bool) {
	if f.cfg.MaxDelay > 0 && len(chunk) > 0 {
		frac, _ := f.rand(f.pos, 3)
		time.Sleep(time.Duration(frac * float64(f.cfg.MaxDelay)))
	}
	f.stats.bytes.Add(int64(len(chunk)))
	w := 0
	for i := 0; i < len(chunk); i++ {
		pos := f.pos
		f.pos++
		if f.cfg.DropProb > 0 {
			if p, _ := f.rand(pos, 0); p < f.cfg.DropProb {
				f.stats.drops.Add(1)
				continue // byte deleted from the stream
			}
		}
		b := chunk[i]
		if f.cfg.FlipProb > 0 {
			if p, h := f.rand(pos, 1); p < f.cfg.FlipProb {
				b ^= 1 << (h & 7)
				f.stats.flips.Add(1)
			}
		}
		if f.cfg.KillProb > 0 && !kill {
			if p, _ := f.rand(pos, 2); p < f.cfg.KillProb {
				f.stats.kills.Add(1)
				kill = true
			}
		}
		chunk[w] = b
		w++
	}
	return chunk[:w], kill
}

// Conn wraps a net.Conn, injecting faults into the bytes it Reads (the
// incoming direction). Writes pass through untouched.
type Conn struct {
	net.Conn
	f      *faulter
	killed atomic.Bool
}

// WrapConn fault-injects the read side of conn. connNum diversifies the
// fault pattern between connections sharing a Config.
func WrapConn(conn net.Conn, cfg Config, connNum int64) *Conn {
	ctr := &counters{}
	ctr.conns.Add(1)
	return &Conn{Conn: conn, f: newFaulter(cfg, connNum, ctr)}
}

// Read reads from the underlying connection and applies faults to the data.
func (c *Conn) Read(p []byte) (int, error) {
	if c.killed.Load() {
		return 0, fmt.Errorf("chaos: connection killed")
	}
	n, err := c.Conn.Read(p)
	if n == 0 {
		return n, err
	}
	out, kill := c.f.process(p[:n])
	if kill {
		c.killed.Store(true)
		c.Conn.Close()
	}
	return len(out), err
}

// Proxy is a TCP proxy that forwards the client→server direction verbatim
// and fault-injects the server→client direction — a lossy wireless downlink
// in front of an honest broadcast server. Clients dial Addr instead of the
// server; reconnecting clients get a fresh (differently-seeded) link.
type Proxy struct {
	ln     net.Listener
	target string
	cfg    Config
	ctr    counters

	mu    sync.Mutex
	links map[*proxyLink]struct{}
	next  int64

	closed chan struct{}
	wg     sync.WaitGroup
}

// proxyLink is one client connection and its server-side pair.
type proxyLink struct {
	client, server net.Conn
	once           sync.Once
}

func (pl *proxyLink) close() {
	pl.once.Do(func() {
		pl.client.Close()
		pl.server.Close()
	})
}

// NewProxy listens on 127.0.0.1:0 and forwards connections to target with
// downstream fault injection.
func NewProxy(target string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: proxy listen: %w", err)
	}
	p := &Proxy{ln: ln, target: target, cfg: cfg, links: make(map[*proxyLink]struct{}), closed: make(chan struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address — what clients should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats reports the faults injected so far.
func (p *Proxy) Stats() Stats { return p.ctr.snapshot() }

// LiveConns reports the number of client connections currently proxied.
func (p *Proxy) LiveConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.links)
}

// KillAll force-closes every live proxied connection — a forced disconnect
// of all clients — and returns how many links were killed. The proxy keeps
// accepting new connections, so clients can reconnect.
func (p *Proxy) KillAll() int {
	p.mu.Lock()
	links := make([]*proxyLink, 0, len(p.links))
	for pl := range p.links {
		links = append(links, pl)
		// Forget the link immediately so LiveConns observed after KillAll
		// only counts connections established afterwards.
		delete(p.links, pl)
	}
	p.mu.Unlock()
	for _, pl := range links {
		pl.close()
	}
	p.ctr.kills.Add(int64(len(links)))
	return len(links)
}

// Close stops accepting, kills every live link and waits for the forwarding
// goroutines to exit.
func (p *Proxy) Close() {
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	p.ln.Close()
	p.KillAll()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		pl := &proxyLink{client: client, server: server}
		p.mu.Lock()
		p.links[pl] = struct{}{}
		connNum := p.next
		p.next++
		p.mu.Unlock()
		p.ctr.conns.Add(1)
		p.wg.Add(2)
		go p.pipeUp(pl)
		go p.pipeDown(pl, connNum)
	}
}

// pipeUp forwards client→server verbatim (the uplink through the proxy is
// clean; netcast tests point only the broadcast downlink here, but keeping
// the upstream honest also makes the proxy usable in front of the uplink).
func (p *Proxy) pipeUp(pl *proxyLink) {
	defer p.wg.Done()
	defer p.unlink(pl)
	buf := make([]byte, 32<<10)
	for {
		n, err := pl.client.Read(buf)
		if n > 0 {
			if _, werr := pl.server.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// pipeDown forwards server→client through the fault injector.
func (p *Proxy) pipeDown(pl *proxyLink, connNum int64) {
	defer p.wg.Done()
	defer p.unlink(pl)
	f := newFaulter(p.cfg, connNum, &p.ctr)
	buf := make([]byte, 32<<10)
	for {
		n, err := pl.server.Read(buf)
		if n > 0 {
			out, kill := f.process(buf[:n])
			if len(out) > 0 {
				if _, werr := pl.client.Write(out); werr != nil {
					return
				}
			}
			if kill {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// unlink closes and forgets one link.
func (p *Proxy) unlink(pl *proxyLink) {
	pl.close()
	p.mu.Lock()
	delete(p.links, pl)
	p.mu.Unlock()
}

// Validate rejects nonsensical configurations (probabilities outside
// [0,1], negative delay).
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"FlipProb", c.FlipProb}, {"DropProb", c.DropProb}, {"KillProb", c.KillProb}} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("chaos: %s = %v outside [0,1]", p.name, p.v)
		}
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("chaos: negative MaxDelay")
	}
	return nil
}
