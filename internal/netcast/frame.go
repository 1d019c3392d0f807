// Package netcast runs the paper's system (Fig. 1) over real sockets: a
// broadcast server with a TCP uplink for XPath requests and a TCP downlink
// that streams broadcast cycles — cycle head, air index (in the wire
// format), second-tier offset list and documents — to every subscriber.
// Clients implement the §3.4 access protocols against the decoded byte
// stream, so the whole pipeline (index build → prune → pack → encode →
// decode → navigate → retrieve) is exercised end to end on the wire.
//
// The frame format (protocol version 2, with the channel head of version 3)
// is package wire's, and the engine frames every cycle exactly as it airs:
// the server queues those frames, the client reads them back with
// wire.ReadFrame. This file holds the payloads only the uplink carries.
package netcast

import (
	"encoding/binary"
	"fmt"
	"time"
)

// rejectHdrLen is the fixed prefix of a FrameReject payload: the uint32
// little-endian retry-after hint in milliseconds.
const rejectHdrLen = 4

// maxRetryAfter clamps the encoded retry-after hint (~49.7 days, the uint32
// millisecond ceiling is far above it anyway; this keeps hints sane).
const maxRetryAfter = time.Hour

// encodeReject serialises a FrameReject payload: retry-after hint (clamped
// to [0, maxRetryAfter], rounded up to whole milliseconds) then the reason
// text. Rounding up keeps a positive hint positive on the wire: a token-bucket
// wait under a millisecond must not read as "retry now".
func encodeReject(retryAfter time.Duration, reason string) []byte {
	if retryAfter < 0 {
		retryAfter = 0
	}
	if retryAfter > maxRetryAfter {
		retryAfter = maxRetryAfter
	}
	out := make([]byte, rejectHdrLen, rejectHdrLen+len(reason))
	binary.LittleEndian.PutUint32(out, uint32((retryAfter+time.Millisecond-1)/time.Millisecond))
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
