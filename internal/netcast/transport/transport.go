// Package transport is the layered stream stack under the v2/v3 frame
// protocol, modeled on syncthing's BEP layering (TCP → per-message-boundary
// DEFLATE → protocol). A transport frame wraps one complete inner protocol
// frame:
//
//	sync(2) | flags(1) | [uvarint stream] | uvarint len | body | CRC32C(4)
//
// The flags byte is the per-frame compression marker: bit 0 set means the
// body is a raw DEFLATE (RFC 1951) stream whose inflation is the inner
// frame, clear means the body is the inner frame verbatim — so frames below
// the compression floor, and frames deflate fails to shrink, ship raw and
// incompressible payloads never regress. Bit 1 marks a multiplexed frame
// carrying a logical-stream ID (uplink only). The trailing CRC32C covers
// flags through body, and the sync pair (distinct from the inner protocol's)
// lets a receiver that lost framing rescan for the next transport boundary.
//
// Every frame's DEFLATE stream is independent — no shared dictionary across
// frames — so an envelope is a pure function of its inner frame: a broadcast
// server builds each one once, fans the identical bytes out to every
// subscriber regardless of join time, may keep it to air again (netcast
// caches a document's envelope beside its payload), and a corrupted frame
// never poisons the decode of later ones. The encoder is reused per
// connection (flate.Writer.Reset), so the compressor's state and scratch are
// allocated once; each Encode allocates only the envelope it returns, which
// the caller owns and may retain.
//
// Negotiation happens at hello: the initiating side writes a Hello naming
// the features it wants, the accepting side replies with the intersection it
// grants (plus the per-stream flow-control credit for mux). Every uplink
// opens with one. On the downlink the server sends a hello only when it
// compresses: the hello magic shares no prefix with the inner protocol's
// sync bytes, so a subscriber peeks one conservative prefix and reads a bare
// downlink unchanged — with compression off, not a single downlink byte
// differs from the bare protocol.
package transport

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Transport frame sync bytes; deliberately distinct from the inner
// protocol's 0xB5 0xCA pair so the two framings cannot be confused while
// rescanning a corrupted stream.
const (
	syncA = 0xD6
	syncB = 0x9A
)

// Per-frame flag bits. Unknown bits are rejected, which keeps the resync
// scanner from locking onto garbage.
const (
	flagDeflate = 0x01 // body is an independent DEFLATE stream
	flagStream  = 0x02 // a uvarint logical-stream ID precedes the length
)

// MaxInner bounds the inner frame a transport frame may carry, both as a
// declared-length sanity check and as the decompression-bomb cap: inflation
// is cut off at MaxInner+1 bytes and the frame rejected as corrupt. The
// bound is the inner protocol's 16 MiB payload ceiling plus its own framing.
const MaxInner = 16<<20 + 64

// CompressFloor is the default size floor below which frames are sent raw:
// tiny frames (acks, channel heads) cost more to deflate than they save.
const CompressFloor = 128

// NoStream encodes a frame with no logical-stream ID (the broadcast
// downlink, where the stream is shared by construction).
const NoStream int64 = -1

// crcTable is the CRC32C (Castagnoli) table, matching the inner protocol's
// checksum choice.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a transport frame rejected for bad sync, flags, length,
// checksum, or an undecodable/oversized DEFLATE body — as opposed to
// connection-level I/O errors. Corruption is recoverable by Resync; I/O
// errors require a reconnect.
var ErrCorrupt = errors.New("transport: corrupt frame")

// IsCorrupt reports whether err is detected corruption rather than a
// connection failure.
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// Hello is the negotiation exchanged before the first transport frame:
//
//	'X' 'B' 'T' '1' | version(1) | flags(1) | uvarint credit
//
// The initiator's hello proposes features; the acceptor's reply grants the
// intersection and, when mux is granted, the per-stream flow-control credit
// (how many frames a logical stream may have in flight unanswered).
type Hello struct {
	// Compress requests (or grants) per-frame DEFLATE.
	Compress bool
	// Mux requests (or grants) logical-stream multiplexing.
	Mux bool
	// Credit is the per-stream flow-control window granted by an acceptor;
	// zero in an initiator's hello.
	Credit uint32
}

// helloMagic opens a hello. The first byte shares no value with either
// sync pair, so one peeked prefix distinguishes hello / legacy / frame.
const helloMagic = "XBT1"

const helloVersion = 1

// Hello flag bits.
const (
	helloCompress = 0x01
	helloMux      = 0x02
)

// IsHelloPrefix reports whether a peeked prefix (at least one byte) opens a
// transport hello rather than a legacy protocol frame.
func IsHelloPrefix(p []byte) bool {
	if len(p) == 0 {
		return false
	}
	n := len(p)
	if n > len(helloMagic) {
		n = len(helloMagic)
	}
	return string(p[:n]) == helloMagic[:n]
}

// WriteHello serialises h to w.
func WriteHello(w io.Writer, h Hello) error {
	var flags byte
	if h.Compress {
		flags |= helloCompress
	}
	if h.Mux {
		flags |= helloMux
	}
	buf := make([]byte, 0, len(helloMagic)+2+binary.MaxVarintLen32)
	buf = append(buf, helloMagic...)
	buf = append(buf, helloVersion, flags)
	buf = binary.AppendUvarint(buf, uint64(h.Credit))
	_, err := w.Write(buf)
	return err
}

// ReadHello parses a hello off br (a *bufio.Reader, typically). The stream
// ending before the hello's first byte is io.EOF; ending inside it is
// io.ErrUnexpectedEOF.
func ReadHello(br io.ByteReader) (Hello, error) {
	var hdr [len(helloMagic) + 2]byte
	for i := range hdr {
		var err error
		if hdr[i], err = br.ReadByte(); err != nil {
			if i > 0 {
				err = cut(err)
			}
			return Hello{}, err
		}
	}
	if string(hdr[:len(helloMagic)]) != helloMagic {
		return Hello{}, fmt.Errorf("transport: bad hello magic %q", hdr[:len(helloMagic)])
	}
	if hdr[len(helloMagic)] != helloVersion {
		return Hello{}, fmt.Errorf("transport: hello version %d unsupported", hdr[len(helloMagic)])
	}
	flags := hdr[len(helloMagic)+1]
	if flags&^(helloCompress|helloMux) != 0 {
		return Hello{}, fmt.Errorf("transport: hello flags %#02x unknown", flags)
	}
	credit, err := binary.ReadUvarint(br)
	if err != nil {
		return Hello{}, cut(err)
	}
	if credit > 1<<20 {
		return Hello{}, fmt.Errorf("transport: hello credit %d insane", credit)
	}
	return Hello{
		Compress: flags&helloCompress != 0,
		Mux:      flags&helloMux != 0,
		Credit:   uint32(credit),
	}, nil
}

// EncoderStats accounts an encoder's work for benchmarks and telemetry.
// Counters are not synchronised; an Encoder serves one goroutine.
type EncoderStats struct {
	// Frames counts encoded frames; Compressed those that shipped deflated.
	Frames, Compressed int64
	// InnerBytes is the total inner-frame size; WireBytes what actually
	// went on the wire (envelopes included). WireBytes/InnerBytes is the
	// achieved compression ratio.
	InnerBytes, WireBytes int64
}

// Encoder turns inner frames into transport envelopes. Not safe for
// concurrent use; one Encoder per connection (or per fan-out point).
type Encoder struct {
	compress bool
	floor    int
	fw       *flate.Writer
	cbuf     bytes.Buffer
	stats    EncoderStats
}

// NewEncoder returns an encoder; with compress set, frames at or above the
// floor are deflated (falling back to raw whenever deflate fails to shrink).
// floor <= 0 selects CompressFloor.
func NewEncoder(compress bool, floor int) *Encoder {
	if floor <= 0 {
		floor = CompressFloor
	}
	return &Encoder{compress: compress, floor: floor}
}

// Stats snapshots the encoder's counters.
func (e *Encoder) Stats() EncoderStats { return e.stats }

// Encode builds one transport envelope around inner. stream >= 0 stamps a
// logical-stream ID (mux); NoStream omits it. The returned slice is freshly
// allocated and safe to retain (fan-out queues hold encoded frames).
func (e *Encoder) Encode(stream int64, inner []byte) ([]byte, error) {
	if len(inner) > MaxInner {
		return nil, fmt.Errorf("transport: inner frame of %d bytes exceeds limit", len(inner))
	}
	body := inner
	var flags byte
	if e.compress && len(inner) >= e.floor {
		e.cbuf.Reset()
		if e.fw == nil {
			fw, err := flate.NewWriter(&e.cbuf, flate.DefaultCompression)
			if err != nil {
				return nil, err
			}
			e.fw = fw
		} else {
			e.fw.Reset(&e.cbuf)
		}
		if _, err := e.fw.Write(inner); err != nil {
			return nil, err
		}
		if err := e.fw.Close(); err != nil {
			return nil, err
		}
		// The marker bit ships only when deflate actually won, so
		// incompressible payloads never regress past the envelope overhead.
		if e.cbuf.Len() < len(inner) {
			body = e.cbuf.Bytes()
			flags |= flagDeflate
		}
	}
	if stream >= 0 {
		flags |= flagStream
	}
	out := make([]byte, 0, len(body)+2*binary.MaxVarintLen64+7)
	out = append(out, syncA, syncB, flags)
	if stream >= 0 {
		out = binary.AppendUvarint(out, uint64(stream))
	}
	out = binary.AppendUvarint(out, uint64(len(body)))
	out = append(out, body...)
	crc := crc32.Checksum(out[2:], crcTable)
	out = binary.LittleEndian.AppendUint32(out, crc)
	e.stats.Frames++
	if flags&flagDeflate != 0 {
		e.stats.Compressed++
	}
	e.stats.InnerBytes += int64(len(inner))
	e.stats.WireBytes += int64(len(out))
	return out, nil
}

// Frame is one decoded transport frame.
type Frame struct {
	// Stream is the logical-stream ID, or NoStream when the frame carried
	// none.
	Stream int64
	// Inner is the wrapped inner frame, decompressed when the marker bit was
	// set. Valid only until the Reader's next call.
	Inner []byte
	// Wire is the envelope's size on the wire — the frame's true air cost,
	// which is what tuning/doze accounting counts when compression is
	// negotiated.
	Wire int
	// Raw is the envelope exactly as read (sync through CRC), for
	// byte-faithful capture. Valid only until the Reader's next call.
	Raw []byte
	// Compressed reports the per-frame marker bit.
	Compressed bool
}

// Reader decodes transport frames off a stream. Not safe for concurrent
// use.
type Reader struct {
	br  *bufio.Reader
	raw []byte        // last envelope, reused across frames
	db  bytes.Buffer  // decompression buffer, reused
	inf io.ReadCloser // flate reader, reused via flate.Resetter
}

// NewReader returns a frame reader over r. A *bufio.Reader is used as it
// is, so bytes already peeked into its buffer are read first.
func NewReader(r io.Reader) *Reader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &Reader{br: br}
}

// Next reads one transport frame. Corruption returns an error satisfying
// IsCorrupt (the caller rescans with Resync); I/O errors pass through
// unwrapped. A clean EOF before any byte of the frame is io.EOF.
func (r *Reader) Next() (Frame, error) {
	b0, err := r.br.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	b1, err := r.br.ReadByte()
	if err != nil {
		return Frame{}, cut(err)
	}
	if b0 != syncA || b1 != syncB {
		return Frame{}, fmt.Errorf("%w: bad sync bytes %#02x %#02x", ErrCorrupt, b0, b1)
	}
	return r.readAfterSync()
}

// Resync scans a desynchronised stream for the next well-formed transport
// frame, returning it plus the bytes consumed before it (garbage and failed
// candidates). I/O errors propagate; the scan itself never gives up — the
// caller's read deadline or context bounds it.
func (r *Reader) Resync() (Frame, int64, error) {
	var skipped int64
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return Frame{}, skipped, err
		}
		skipped++
		if b != syncA {
			continue
		}
		p, err := r.br.Peek(1)
		if err != nil {
			return Frame{}, skipped, cut(err)
		}
		if p[0] != syncB {
			continue
		}
		_, _ = r.br.Discard(1)
		skipped++
		fr, err := r.readAfterSync()
		if err == nil {
			// The accepted frame's own bytes are not skipped garbage.
			return fr, skipped - 2, nil
		}
		if IsCorrupt(err) {
			// False sync inside other data, or the candidate itself is
			// corrupt; everything it consumed was garbage. Keep scanning.
			skipped += int64(len(r.raw)) - 2
			continue
		}
		return Frame{}, skipped, err
	}
}

// readAfterSync parses the remainder of a frame whose sync pair was just
// consumed, accumulating the envelope into r.raw for Frame.Raw.
func (r *Reader) readAfterSync() (Frame, error) {
	r.raw = append(r.raw[:0], syncA, syncB)
	flags, err := r.readByte()
	if err != nil {
		return Frame{}, err
	}
	if flags&^(flagDeflate|flagStream) != 0 {
		return Frame{}, fmt.Errorf("%w: unknown flags %#02x", ErrCorrupt, flags)
	}
	stream := NoStream
	if flags&flagStream != 0 {
		v, err := r.readUvarint()
		if err != nil {
			return Frame{}, err
		}
		if v > 1<<62 {
			return Frame{}, fmt.Errorf("%w: stream ID %d insane", ErrCorrupt, v)
		}
		stream = int64(v)
	}
	n, err := r.readUvarint()
	if err != nil {
		return Frame{}, err
	}
	if n > MaxInner {
		return Frame{}, fmt.Errorf("%w: declared body of %d bytes exceeds limit", ErrCorrupt, n)
	}
	bodyStart := len(r.raw)
	r.raw = append(r.raw, make([]byte, n+4)...)
	if _, err := io.ReadFull(r.br, r.raw[bodyStart:]); err != nil {
		return Frame{}, cut(err)
	}
	body := r.raw[bodyStart : bodyStart+int(n)]
	got := binary.LittleEndian.Uint32(r.raw[bodyStart+int(n):])
	if want := crc32.Checksum(r.raw[2:bodyStart+int(n)], crcTable); got != want {
		return Frame{}, fmt.Errorf("%w: checksum %#08x, want %#08x", ErrCorrupt, got, want)
	}
	fr := Frame{
		Stream:     stream,
		Inner:      body,
		Wire:       len(r.raw),
		Raw:        r.raw,
		Compressed: flags&flagDeflate != 0,
	}
	if fr.Compressed {
		inner, err := r.inflate(body)
		if err != nil {
			return Frame{}, err
		}
		fr.Inner = inner
	}
	return fr, nil
}

// inflate decompresses one frame body, enforcing the decompression-bomb cap:
// a body inflating past MaxInner is rejected as corrupt, never buffered.
func (r *Reader) inflate(body []byte) ([]byte, error) {
	src := bytes.NewReader(body)
	if r.inf == nil {
		r.inf = flate.NewReader(src)
	} else if err := r.inf.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	r.db.Reset()
	n, err := io.Copy(&r.db, io.LimitReader(r.inf, MaxInner+1))
	if err != nil {
		return nil, fmt.Errorf("%w: deflate: %v", ErrCorrupt, err)
	}
	if n > MaxInner {
		return nil, fmt.Errorf("%w: inflated frame exceeds %d bytes", ErrCorrupt, MaxInner)
	}
	return r.db.Bytes(), nil
}

// readByte reads one byte, appending it to the raw envelope.
func (r *Reader) readByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, cut(err)
	}
	r.raw = append(r.raw, b)
	return b, nil
}

// cut is the error of a read past a frame's or a hello's first byte: there
// the stream's end cuts it short.
func cut(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readUvarint reads a uvarint byte by byte, appending to the raw envelope.
// Malformed encodings are corruption, not I/O failure.
func (r *Reader) readUvarint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		b, err := r.readByte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: uvarint overflow", ErrCorrupt)
}
