package netcast

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/netcast/transport"
	"repro/internal/wire"
)

// frameSource adapts one downlink connection to frame-at-a-time reads. The
// server speaks either the bare v2/v3 protocol or the transport layer
// (per-frame DEFLATE under the same frames); the source sniffs which by
// peeking the stream's first bytes — a transport hello switches it into
// transport mode, anything else is served exactly as before, byte for byte.
//
// Every frame comes back with its air cost: on the bare protocol that is
// the payload size (matching the pre-transport accounting exactly), in
// transport mode it is the envelope's wire size — so tuning and doze
// metrics count *compressed* air bytes when compression is negotiated,
// which is the whole point of compressing.
type frameSource struct {
	br      *bufio.Reader
	tr      *transport.Reader // non-nil once a transport hello was sniffed
	hello   []byte            // the sniffed hello exactly as read
	sniffed bool

	// doze accumulates bytes the source skipped internally while
	// realigning after transport-level corruption; takeDoze drains it into
	// the caller's stats.
	doze int64

	// held is a frame already off the stream that the next read returns
	// first: one the reader put back (unread), or the frame a
	// transport-level resync recovered — stashed so the corruption error can
	// surface to the protocol layer (which must count the resync and drop
	// its cycle state) without losing the frame.
	held *airFrame

	// buf holds the payload of the frame read last; every read reuses it.
	buf []byte
}

// airFrame is one protocol frame off a downlink with its air cost. raw is
// the frame exactly as it came off the air, for byte-faithful capture: the
// bare frame, or the transport envelope around it. payload and raw live in
// the source's (or the transport reader's) buffers and are valid only until
// the source's next read off the stream (a frame a bare-stream resync
// recovers comes back without raw), so whatever outlives the frame is copied
// out of it.
type airFrame struct {
	t       wire.FrameType
	payload []byte
	air     int64
	raw     []byte
}

// newFrameSource wraps a downlink connection.
func newFrameSource(conn io.Reader) *frameSource {
	return &frameSource{br: bufio.NewReaderSize(conn, downlinkBufSize)}
}

// sniff inspects the stream's first bytes once: a transport hello switches
// the source into transport mode. A peek failure is left for the next read
// to report (a legacy stream's first frame is always longer than the peek).
func (fs *frameSource) sniff() error {
	if fs.sniffed {
		return nil
	}
	p, err := fs.br.Peek(4)
	if err == nil && transport.IsHelloPrefix(p) {
		// The downlink hello only announces framing; nothing to grant.
		rec := &helloRecorder{br: fs.br}
		if _, err := transport.ReadHello(rec); err != nil {
			return fmt.Errorf("netcast: transport hello: %w", err)
		}
		fs.hello = rec.got
		fs.tr = transport.NewReader(fs.br)
	}
	fs.sniffed = true
	return nil
}

// isTransport reports whether the downlink negotiated the transport layer.
// Meaningful after the first next/resync call.
func (fs *frameSource) isTransport() bool { return fs.tr != nil }

// takeDoze drains bytes skipped during internal transport-level resyncs.
func (fs *frameSource) takeDoze() int64 {
	d := fs.doze
	fs.doze = 0
	return d
}

// unread puts back the frame the last read returned, for a reader that
// turns out to have run into the next cycle's share.
func (fs *frameSource) unread(fr airFrame) { fs.held = &fr }

// next reads one protocol frame and its air cost. Corruption — at either
// the transport or the frame layer — satisfies wire.IsCorrupt; in transport
// mode the stream is realigned internally first (the recovered frame is
// held for the following call), so the protocol layer's recovery logic
// never has to know which layer detected the damage.
func (fs *frameSource) next() (airFrame, error) {
	if fr := fs.held; fr != nil {
		fs.held = nil
		return *fr, nil
	}
	if err := fs.sniff(); err != nil {
		return airFrame{}, err
	}
	if fs.tr == nil {
		t, payload, err := wire.ReadFrameInto(fs.br, &fs.buf)
		if err != nil {
			return airFrame{}, err
		}
		raw := fs.buf[:wire.FrameHeaderLen+len(payload)+wire.FrameTrailerLen]
		return airFrame{t: t, payload: payload, air: int64(len(payload)), raw: raw}, nil
	}
	env, err := fs.tr.Next()
	if err != nil {
		if !transport.IsCorrupt(err) {
			return airFrame{}, err
		}
		// Realign at the transport layer now; surface the corruption once.
		renv, skipped, rerr := fs.tr.Resync()
		fs.doze += skipped
		if rerr != nil {
			return airFrame{}, rerr
		}
		if fr, derr := fs.unwrap(renv); derr == nil {
			fs.held = &fr
		} else {
			fs.doze += int64(renv.Wire)
		}
		return airFrame{}, fmt.Errorf("%w: %v", wire.ErrFrameCorrupt, err)
	}
	fr, derr := fs.unwrap(env)
	if derr != nil {
		// A CRC-valid envelope wrapping an undecodable inner frame; the
		// stream itself is still aligned.
		return airFrame{}, fmt.Errorf("%w: inner frame: %v", wire.ErrFrameCorrupt, derr)
	}
	return fr, nil
}

// resync scans for the next frame of type want, returning it and the bytes
// skipped on the way (the caller adds them to doze accounting).
func (fs *frameSource) resync(want wire.FrameType) (fr airFrame, skipped int64, err error) {
	if err := fs.sniff(); err != nil {
		return airFrame{}, 0, err
	}
	if fs.tr == nil {
		payload, skipped, err := wire.ResyncFrame(fs.br, want)
		return airFrame{t: want, payload: payload, air: int64(len(payload))}, skipped, err
	}
	for {
		fr, err := fs.next()
		skipped += fs.takeDoze()
		if err != nil {
			if wire.IsCorrupt(err) {
				continue
			}
			return airFrame{}, skipped, err
		}
		if fr.t == want {
			return fr, skipped, nil
		}
		skipped += fr.air
	}
}

// unwrap parses the protocol frame a transport envelope carries; its air
// cost is the envelope's size on the wire.
func (fs *frameSource) unwrap(env transport.Frame) (airFrame, error) {
	t, payload, err := wire.ReadFrameInto(bytes.NewReader(env.Inner), &fs.buf)
	return airFrame{t: t, payload: payload, air: int64(env.Wire), raw: env.Raw}, err
}

// decodeInner parses the protocol frame wrapped by a transport envelope.
// wire.ReadFrame copies the payload out, so the result outlives the transport
// reader's buffer reuse.
func decodeInner(inner []byte) (wire.FrameType, []byte, error) {
	return wire.ReadFrame(bytes.NewReader(inner))
}

// helloRecorder keeps a copy of the bytes a hello parse reads.
type helloRecorder struct {
	br  *bufio.Reader
	got []byte
}

func (r *helloRecorder) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	r.got = append(r.got, b)
	return b, err
}
