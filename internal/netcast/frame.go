// Package netcast runs the paper's system (Fig. 1) over real sockets: a
// broadcast server with a TCP uplink for XPath requests and a TCP downlink
// that streams broadcast cycles — cycle head, air index (in the wire
// format), second-tier offset list and documents — to every subscriber.
// Clients implement the §3.4 access protocols against the decoded byte
// stream, so the whole pipeline (index build → prune → pack → encode →
// decode → navigate → retrieve) is exercised end to end on the wire.
//
// Framing (protocol version 2) is length-prefixed and checksummed: 2 sync
// bytes, 1 type byte, 4 length bytes (little endian), the payload, then a
// CRC32C trailer over the type, length and payload. The sync bytes let a
// client that lost framing (corruption, truncation, mid-stream join after
// lost bytes) rescan the byte stream for the next frame boundary; the
// checksum turns silent mis-decodes into detected, recoverable corruption.
package netcast

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// FrameType tags downlink and uplink frames.
type FrameType byte

const (
	// FrameQuery is an uplink request: payload is the XPath expression.
	FrameQuery FrameType = iota + 1
	// FrameAck acknowledges an uplink request: payload is "ok" or an error
	// message prefixed with "err:".
	FrameAck
	// FrameCycleHead starts a cycle: payload is the encoded wire.CycleHead.
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
	// (protocol version 3): payload is the encoded channelHead. Emitted only
	// when the server runs K > 1 channels, so single-channel streams remain
	// byte-identical v2.
	FrameChannelHead
	// FrameChannelDir carries the channel directory (index channel of a
	// multichannel cycle): the wire.ChannelDir encoding tagging every
	// scheduled doc ID with its carrying channel and stream offset.
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

	frameTypeMax = FrameResumeAck
)

// Frame sync bytes: every v2 frame starts with this pair so receivers can
// re-acquire frame boundaries after losing sync.
const (
	frameSync0 = 0xB5
	frameSync1 = 0xCA
)

// frameHdrLen is sync(2) + type(1) + length(4); frameCRCLen trails the
// payload.
const (
	frameHdrLen = 7
	frameCRCLen = 4
)

// maxFrame bounds payload sizes defensively (16 MiB).
const maxFrame = 16 << 20

// castagnoli is the CRC32C table shared by all frame writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errFrameCorrupt marks a frame rejected for bad sync bytes, an insane
// length, or a checksum mismatch — as opposed to connection-level I/O
// errors. Corruption is recoverable by rescanning the stream; I/O errors
// require a reconnect.
var errFrameCorrupt = errors.New("netcast: corrupt frame")

// isCorrupt reports whether err is a detected-corruption error rather than
// a connection failure.
func isCorrupt(err error) bool { return errors.Is(err, errFrameCorrupt) }

// frameCRC computes the trailer checksum over the type/length header bytes
// and the payload.
func frameCRC(hdr []byte, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, hdr)
	return crc32.Update(crc, castagnoli, payload)
}

// frameEnds returns the header and the CRC32C trailer that enclose payload
// in a v2 frame: the wire form is hdr, payload, crc in turn. Every frame
// encoder goes through it, so they are byte-identical by construction.
func frameEnds(t FrameType, payload []byte) (hdr, crc []byte, err error) {
	if len(payload) > maxFrame {
		return nil, nil, fmt.Errorf("netcast: frame of %d bytes exceeds limit", len(payload))
	}
	ends := make([]byte, frameHdrLen+frameCRCLen)
	hdr, crc = ends[:frameHdrLen], ends[frameHdrLen:]
	hdr[0] = frameSync0
	hdr[1] = frameSync1
	hdr[2] = byte(t)
	binary.LittleEndian.PutUint32(hdr[3:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(crc, frameCRC(hdr[2:], payload))
	return hdr, crc, nil
}

// appendFrame appends one encoded v2 frame to dst, returning the extended
// slice: used where a complete frame must exist as bytes before it goes
// anywhere — transport envelopes and uplink frames.
func appendFrame(dst []byte, t FrameType, payload []byte) ([]byte, error) {
	hdr, crc, err := frameEnds(t, payload)
	if err != nil {
		return nil, err
	}
	return append(append(append(dst, hdr...), payload...), crc...), nil
}

// readFrame reads one v2 frame, verifying sync bytes and checksum. Corrupt
// frames return an error satisfying isCorrupt; I/O failures pass through
// unwrapped so callers can distinguish resync from reconnect.
func readFrame(r io.Reader) (FrameType, []byte, error) {
	var buf []byte
	return readFrameInto(r, &buf)
}

// readFrameInto is readFrame with the whole frame — header, payload and
// trailer, exactly as read — in *buf, which is regrown when too small: the
// payload aliases it and is overwritten by the next call with the same
// buffer.
func readFrameInto(r io.Reader, buf *[]byte) (FrameType, []byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != frameSync0 || hdr[1] != frameSync1 {
		return 0, nil, fmt.Errorf("%w: bad sync bytes %#02x %#02x", errFrameCorrupt, hdr[0], hdr[1])
	}
	n := binary.LittleEndian.Uint32(hdr[3:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", errFrameCorrupt, n)
	}
	need := frameHdrLen + int(n) + frameCRCLen
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	frame := (*buf)[:need]
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[frameHdrLen:]); err != nil {
		return 0, nil, err
	}
	payload := frame[frameHdrLen : frameHdrLen+n]
	got := binary.LittleEndian.Uint32(frame[frameHdrLen+n:])
	if want := frameCRC(hdr[2:], payload); got != want {
		return 0, nil, fmt.Errorf("%w: checksum %#08x, want %#08x", errFrameCorrupt, got, want)
	}
	return FrameType(hdr[2]), payload, nil
}

// resyncFrame scans a desynchronised byte stream for the next well-formed
// frame of type want, returning its payload and the number of bytes
// consumed before the accepted frame (scanned garbage plus any candidate
// frames that failed their checksum). I/O errors propagate; the scan itself
// never gives up — the broadcast is endless, so the caller's context or
// read deadline bounds it.
func resyncFrame(br *bufio.Reader, want FrameType) (payload []byte, skipped int64, err error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return nil, skipped, err
		}
		skipped++
		if b != frameSync0 {
			continue
		}
		// Candidate boundary: peek the rest of the header without consuming,
		// so a false positive advances by only one byte.
		hdr, err := br.Peek(frameHdrLen - 1)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, skipped, io.ErrUnexpectedEOF
			}
			return nil, skipped, err
		}
		t := FrameType(hdr[1])
		n := binary.LittleEndian.Uint32(hdr[2:6])
		if hdr[0] != frameSync1 || t != want || n > maxFrame {
			continue
		}
		// Header looks right: commit to reading the candidate frame.
		if _, err := br.Discard(frameHdrLen - 1); err != nil {
			return nil, skipped, err
		}
		skipped += frameHdrLen - 1
		body := make([]byte, n+frameCRCLen)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, skipped, err
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
		return body[:n], skipped - frameHdrLen, nil
	}
}

// rejectHdrLen is the fixed prefix of a FrameReject payload: the uint32
// little-endian retry-after hint in milliseconds.
const rejectHdrLen = 4

// maxRetryAfter clamps the encoded retry-after hint (~49.7 days, the uint32
// millisecond ceiling is far above it anyway; this keeps hints sane).
const maxRetryAfter = time.Hour

// encodeReject serialises a FrameReject payload: retry-after hint (clamped
// to [0, maxRetryAfter], millisecond granularity) then the reason text.
func encodeReject(retryAfter time.Duration, reason string) []byte {
	if retryAfter < 0 {
		retryAfter = 0
	}
	if retryAfter > maxRetryAfter {
		retryAfter = maxRetryAfter
	}
	out := make([]byte, rejectHdrLen, rejectHdrLen+len(reason))
	binary.LittleEndian.PutUint32(out, uint32(retryAfter/time.Millisecond))
	return append(out, reason...)
}

// decodeReject is the inverse of encodeReject.
func decodeReject(payload []byte) (retryAfter time.Duration, reason string, err error) {
	if len(payload) < rejectHdrLen {
		return 0, "", fmt.Errorf("netcast: reject frame truncated (%d bytes)", len(payload))
	}
	retryAfter = time.Duration(binary.LittleEndian.Uint32(payload)) * time.Millisecond
	if retryAfter > maxRetryAfter {
		retryAfter = maxRetryAfter
	}
	return retryAfter, string(payload[rejectHdrLen:]), nil
}

// Resume statuses: the server's per-request disposition in a FrameResumeAck.
const (
	// ResumeResumed: the request is still pending server-side; no resubmit
	// is needed, and the detail field names the next covering cycle.
	ResumeResumed byte = 0
	// ResumeServed: the request was completed during the outage window; the
	// detail field names the retiring cycle. The client eavesdrops or
	// resubmits if it actually missed the documents.
	ResumeServed byte = 1
	// ResumeResubmit: the server does not know the request (lost journal,
	// served horizon exceeded, or a fresh state directory); resubmit it.
	ResumeResubmit byte = 2
)

// maxResumeIDs bounds one handshake's ID list defensively.
const maxResumeIDs = 1024

// resumeEntry is one request's disposition in a FrameResumeAck.
type resumeEntry struct {
	ID     int64
	Status byte
	Detail int64
}

// encodeResume serialises a FrameResume payload.
func encodeResume(ids []int64) ([]byte, error) {
	if len(ids) > maxResumeIDs {
		return nil, fmt.Errorf("netcast: %d resume IDs exceed limit %d", len(ids), maxResumeIDs)
	}
	out := make([]byte, 0, 2+8*len(ids))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(ids)))
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint64(out, uint64(id))
	}
	return out, nil
}

// decodeResume is the inverse of encodeResume.
func decodeResume(payload []byte) ([]int64, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("netcast: resume frame truncated (%d bytes)", len(payload))
	}
	n := int(binary.LittleEndian.Uint16(payload))
	payload = payload[2:]
	if n > maxResumeIDs || len(payload) != 8*n {
		return nil, fmt.Errorf("netcast: resume frame claims %d IDs with %d payload bytes", n, len(payload))
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return ids, nil
}

// encodeResumeAck serialises a FrameResumeAck payload.
func encodeResumeAck(epoch uint64, generation uint32, entries []resumeEntry) ([]byte, error) {
	if len(entries) > maxResumeIDs {
		return nil, fmt.Errorf("netcast: %d resume entries exceed limit %d", len(entries), maxResumeIDs)
	}
	out := make([]byte, 0, 14+17*len(entries))
	out = binary.LittleEndian.AppendUint64(out, epoch)
	out = binary.LittleEndian.AppendUint32(out, generation)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(entries)))
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint64(out, uint64(e.ID))
		out = append(out, e.Status)
		out = binary.LittleEndian.AppendUint64(out, uint64(e.Detail))
	}
	return out, nil
}

// decodeResumeAck is the inverse of encodeResumeAck.
func decodeResumeAck(payload []byte) (epoch uint64, generation uint32, entries []resumeEntry, err error) {
	if len(payload) < 14 {
		return 0, 0, nil, fmt.Errorf("netcast: resume ack truncated (%d bytes)", len(payload))
	}
	epoch = binary.LittleEndian.Uint64(payload)
	generation = binary.LittleEndian.Uint32(payload[8:])
	n := int(binary.LittleEndian.Uint16(payload[12:]))
	payload = payload[14:]
	if n > maxResumeIDs || len(payload) != 17*n {
		return 0, 0, nil, fmt.Errorf("netcast: resume ack claims %d entries with %d payload bytes", n, len(payload))
	}
	entries = make([]resumeEntry, n)
	for i := range entries {
		e := &entries[i]
		e.ID = int64(binary.LittleEndian.Uint64(payload))
		e.Status = payload[8]
		if e.Status > ResumeResubmit {
			return 0, 0, nil, fmt.Errorf("netcast: resume ack status %d invalid", e.Status)
		}
		e.Detail = int64(binary.LittleEndian.Uint64(payload[9:]))
		payload = payload[17:]
	}
	return epoch, generation, entries, nil
}

// channelHead is the decoded per-channel stream header of a multichannel
// cycle (protocol version 3). Every channel's share of every cycle starts
// with one: `uint32` cycle number, `uint8` channel ID, `uint8` channel
// count, `uint8` role (0 = index, 1 = data), `uint16` doc count carried by
// this channel this cycle.
type channelHead struct {
	Number   uint32
	Channel  uint8
	Channels uint8
	Role     uint8
	NumDocs  uint16
}

// Channel head role values.
const (
	channelRoleIndex uint8 = 0
	channelRoleData  uint8 = 1
)

const channelHeadLen = 9

// encode serialises the channel head.
func (h *channelHead) encode() []byte {
	out := make([]byte, channelHeadLen)
	binary.LittleEndian.PutUint32(out, h.Number)
	out[4] = h.Channel
	out[5] = h.Channels
	out[6] = h.Role
	binary.LittleEndian.PutUint16(out[7:], h.NumDocs)
	return out
}

// decodeChannelHead is the inverse of encode.
func decodeChannelHead(data []byte) (*channelHead, error) {
	if len(data) != channelHeadLen {
		return nil, fmt.Errorf("netcast: channel head has %d bytes, want %d", len(data), channelHeadLen)
	}
	h := &channelHead{
		Number:   binary.LittleEndian.Uint32(data),
		Channel:  data[4],
		Channels: data[5],
		Role:     data[6],
		NumDocs:  binary.LittleEndian.Uint16(data[7:]),
	}
	if h.Channels < 2 {
		return nil, fmt.Errorf("netcast: channel head claims %d channels", h.Channels)
	}
	if h.Channel >= h.Channels {
		return nil, fmt.Errorf("netcast: channel head for channel %d of %d", h.Channel, h.Channels)
	}
	if h.Role != channelRoleIndex && h.Role != channelRoleData {
		return nil, fmt.Errorf("netcast: channel head role %d invalid", h.Role)
	}
	if (h.Role == channelRoleIndex) != (h.Channel == 0) {
		return nil, fmt.Errorf("netcast: channel %d with role %d", h.Channel, h.Role)
	}
	return h, nil
}
