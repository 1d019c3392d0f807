package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame format (protocol version 2): every segment a cycle airs, and every
// uplink message, travels as one length-prefixed, checksummed frame — 2 sync
// bytes, 1 type byte, 4 length bytes (little endian), the payload, then a
// CRC32C trailer over the type, length and payload. The sync bytes let a
// receiver that lost framing (corruption, truncation, mid-stream join after
// lost bytes) rescan the byte stream for the next frame boundary; the
// checksum turns silent mis-decodes into detected, recoverable corruption.

// FrameType tags downlink and uplink frames.
type FrameType byte

const (
	// FrameQuery is an uplink request: payload is the XPath expression.
	FrameQuery FrameType = iota + 1
	// FrameAck acknowledges an uplink request: payload is "ok" or an error
	// message prefixed with "err:".
	FrameAck
	// FrameCycleHead starts a cycle: payload is the encoded CycleHead.
	FrameCycleHead
	// FrameIndex carries the packed index segment.
	FrameIndex
	// FrameSecondTier carries the second-tier offset list (two-tier mode).
	FrameSecondTier
	// FrameDoc carries one document: 2 ID bytes then the XML.
	FrameDoc
	// FrameReject refuses an uplink request under overload: payload is a
	// 4-byte little-endian retry-after hint in milliseconds followed by a
	// human-readable reason. Sent on the uplink in place of FrameAck.
	FrameReject
	// FrameChannelHead starts one channel's share of a multichannel cycle
	// (protocol version 3): payload is the encoded ChannelHead. Aired only
	// when a cycle spans K > 1 channels, so single-channel streams remain
	// byte-identical v2.
	FrameChannelHead
	// FrameChannelDir carries the channel directory (index channel of a
	// multichannel cycle): the ChannelDir encoding tagging every scheduled
	// doc ID with its carrying channel and stream offset.
	FrameChannelDir
	// FrameResume opens a session-resume handshake on the uplink: after a
	// reconnect the client presents the request IDs the server acked before
	// the outage (payload: uint16 count, then count uint64 IDs) instead of
	// blindly resubmitting. Sent in place of a FrameQuery; the server
	// answers with FrameResumeAck in lockstep.
	FrameResume
	// FrameResumeAck answers a FrameResume with the server's identity and a
	// per-request disposition: uint64 server epoch (journal lineage), uint32
	// restart generation, uint16 count, then per request a uint64 ID, a
	// status byte (resumed / already-served / resubmit) and a uint64 detail
	// (the covering cycle for resumed requests, the retire cycle for
	// already-served ones).
	FrameResumeAck
)

// Frame sync bytes: every v2 frame starts with this pair so receivers can
// re-acquire frame boundaries after losing sync.
const (
	FrameSync0 = 0xB5
	FrameSync1 = 0xCA
)

// FrameHeaderLen is sync(2) + type(1) + length(4); FrameTrailerLen is the
// CRC32C that follows the payload.
const (
	FrameHeaderLen  = 7
	FrameTrailerLen = 4
)

// MaxFramePayload bounds payload sizes defensively (16 MiB).
const MaxFramePayload = 16 << 20

// castagnoli is the CRC32C table shared by all frame writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFrameCorrupt marks a frame rejected for bad sync bytes, an insane
// length, or a checksum mismatch — as opposed to connection-level I/O
// errors. Corruption is recoverable by rescanning the stream; I/O errors
// require a reconnect.
var ErrFrameCorrupt = errors.New("wire: corrupt frame")

// IsCorrupt reports whether err is a detected-corruption error rather than
// a connection failure.
func IsCorrupt(err error) bool { return errors.Is(err, ErrFrameCorrupt) }

// frameCRC computes the trailer checksum over the type/length header bytes
// and the payload.
func frameCRC(hdr []byte, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, hdr)
	return crc32.Update(crc, castagnoli, payload)
}

// StartFrame appends a frame header's room to dst: the payload is appended
// after it, and FinishFrame, handed the returned start, closes the frame in
// place. A payload marshalled straight into a frame is never copied.
func StartFrame(dst []byte) (_ []byte, start int) {
	return append(dst, make([]byte, FrameHeaderLen)...), len(dst)
}

// FinishFrame closes the frame StartFrame opened at dst[start:], whose
// payload is everything after its header: it writes the header and appends
// the checksum.
func FinishFrame(dst []byte, start int, t FrameType) ([]byte, error) {
	payload := dst[start+FrameHeaderLen:]
	if len(payload) > MaxFramePayload {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	hdr := dst[start : start+FrameHeaderLen]
	hdr[0] = FrameSync0
	hdr[1] = FrameSync1
	hdr[2] = byte(t)
	binary.LittleEndian.PutUint32(hdr[3:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, frameCRC(hdr[2:], payload)), nil
}

// AppendFrame appends one encoded frame carrying payload to dst, returning
// the extended slice.
func AppendFrame(dst []byte, t FrameType, payload []byte) ([]byte, error) {
	dst, start := StartFrame(dst)
	return FinishFrame(append(dst, payload...), start, t)
}

// ReadFrame reads one frame, verifying sync bytes and checksum. Corrupt
// frames return an error satisfying IsCorrupt; I/O failures pass through
// unwrapped so callers can distinguish resync from reconnect. The stream
// ending before a frame's first byte is io.EOF, a clean end; ending anywhere
// inside a frame is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var buf []byte
	return ReadFrameInto(r, &buf)
}

// ReadFrameInto is ReadFrame with the whole frame — header, payload and
// trailer, exactly as read — in *buf, which is regrown when too small: the
// payload aliases it and is overwritten by the next call with the same
// buffer.
func ReadFrameInto(r io.Reader, buf *[]byte) (FrameType, []byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != FrameSync0 || hdr[1] != FrameSync1 {
		return 0, nil, fmt.Errorf("%w: bad sync bytes %#02x %#02x", ErrFrameCorrupt, hdr[0], hdr[1])
	}
	n := binary.LittleEndian.Uint32(hdr[3:])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrFrameCorrupt, n)
	}
	need := FrameHeaderLen + int(n) + FrameTrailerLen
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	frame := (*buf)[:need]
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[FrameHeaderLen:]); err != nil {
		return 0, nil, cutFrame(err)
	}
	return ParseFrame(frame)
}

// cutFrame is the error of a read past a frame's first byte: there the
// stream's end cuts the frame.
func cutFrame(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ParseFrame checks one whole frame held in memory, as ReadFrame checks a
// frame it reads, and returns its type and payload, which aliases b.
func ParseFrame(b []byte) (FrameType, []byte, error) {
	if len(b) < FrameHeaderLen+FrameTrailerLen || b[0] != FrameSync0 || b[1] != FrameSync1 ||
		int(binary.LittleEndian.Uint32(b[3:])) != len(b)-FrameHeaderLen-FrameTrailerLen {
		return 0, nil, fmt.Errorf("%w: malformed frame of %d bytes", ErrFrameCorrupt, len(b))
	}
	payload := b[FrameHeaderLen : len(b)-FrameTrailerLen]
	got, want := binary.LittleEndian.Uint32(b[len(b)-FrameTrailerLen:]), frameCRC(b[2:FrameHeaderLen], payload)
	if got != want {
		return 0, nil, fmt.Errorf("%w: checksum %#08x, want %#08x", ErrFrameCorrupt, got, want)
	}
	return FrameType(b[2]), payload, nil
}

// ResyncFrame scans a desynchronised byte stream for the next well-formed
// frame of type want, returning its payload and the number of bytes
// consumed before the accepted frame (scanned garbage plus any candidate
// frames that failed their checksum). I/O errors propagate; the scan itself
// never gives up — the broadcast is endless, so the caller's context or
// read deadline bounds it.
func ResyncFrame(br *bufio.Reader, want FrameType) (payload []byte, skipped int64, err error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return nil, skipped, err
		}
		skipped++
		if b != FrameSync0 {
			continue
		}
		// Candidate boundary: peek the rest of the header without consuming,
		// so a false positive advances by only one byte.
		hdr, err := br.Peek(FrameHeaderLen - 1)
		if err != nil {
			return nil, skipped, cutFrame(err)
		}
		t := FrameType(hdr[1])
		n := binary.LittleEndian.Uint32(hdr[2:6])
		if hdr[0] != FrameSync1 || t != want || n > MaxFramePayload {
			continue
		}
		// Header looks right: commit to reading the candidate frame.
		if _, err := br.Discard(FrameHeaderLen - 1); err != nil {
			return nil, skipped, err
		}
		skipped += FrameHeaderLen - 1
		body := make([]byte, n+FrameTrailerLen)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, skipped, cutFrame(err)
		}
		var full [5]byte
		full[0] = byte(t)
		binary.LittleEndian.PutUint32(full[1:], n)
		if binary.LittleEndian.Uint32(body[n:]) != frameCRC(full[:], body[:n]) {
			// False sync inside other data, or the candidate itself is
			// corrupt; keep scanning after the consumed bytes.
			skipped += int64(len(body))
			continue
		}
		// The accepted frame's own header bytes are not skipped garbage.
		return body[:n], skipped - FrameHeaderLen, nil
	}
}

// ChannelHead is the per-channel stream header of a multichannel cycle
// (protocol version 3). Every channel's share of every cycle starts with
// one: `uint32` cycle number, `uint8` channel ID, `uint8` channel count,
// `uint8` role (ChannelRoleIndex or ChannelRoleData), `uint16` doc count —
// the cycle's on the index channel, the channel's own on a data channel.
type ChannelHead struct {
	Number   uint32
	Channel  uint8
	Channels uint8
	Role     uint8
	NumDocs  uint16
}

// Channel head role values.
const (
	ChannelRoleIndex uint8 = 0
	ChannelRoleData  uint8 = 1
)

// ChannelHeadLen is the encoded channel head's length.
const ChannelHeadLen = 9

// Append appends the encoded channel head to dst.
func (h *ChannelHead) Append(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, h.Number)
	dst = append(dst, h.Channel, h.Channels, h.Role)
	return binary.LittleEndian.AppendUint16(dst, h.NumDocs)
}

// DecodeChannelHead is the inverse of ChannelHead.Append.
func DecodeChannelHead(data []byte) (*ChannelHead, error) {
	if len(data) != ChannelHeadLen {
		return nil, fmt.Errorf("wire: channel head has %d bytes, want %d", len(data), ChannelHeadLen)
	}
	h := &ChannelHead{
		Number:   binary.LittleEndian.Uint32(data),
		Channel:  data[4],
		Channels: data[5],
		Role:     data[6],
		NumDocs:  binary.LittleEndian.Uint16(data[7:]),
	}
	if h.Channels < 2 {
		return nil, fmt.Errorf("wire: channel head claims %d channels", h.Channels)
	}
	if h.Channel >= h.Channels {
		return nil, fmt.Errorf("wire: channel head for channel %d of %d", h.Channel, h.Channels)
	}
	if h.Role != ChannelRoleIndex && h.Role != ChannelRoleData {
		return nil, fmt.Errorf("wire: channel head role %d invalid", h.Role)
	}
	if (h.Role == ChannelRoleIndex) != (h.Channel == 0) {
		return nil, fmt.Errorf("wire: channel %d with role %d", h.Channel, h.Role)
	}
	return h, nil
}
