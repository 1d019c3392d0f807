// Package journal is the broadcast server's durability layer: one
// append-only log of pending-set events (admissions, cycle commits, request
// and document removals), so a killed server restarts with the exact pending
// set it had durably acknowledged and resumes cycle assembly from the last
// committed cycle.
//
// The log, wal.log, is a magic followed by wire frames (internal/wire: sync
// bytes, type, length, payload, CRC32C), one per record, each payload opening
// with a sequence number one above the record before it:
//
//   - the first record is a checkpoint: the journal's counters, its served
//     memory and the number of admit records that follow it, one per pending
//     request;
//   - every later record is an event, appended as it happens.
//
// A checkpoint rewrites the log: every Options.SnapshotEvery records, on
// Snapshot and Close, and in Open, the recovery code folds the log into its
// state, which is written to a temporary file, fsynced and renamed over
// wal.log; appends continue on the renamed file. The journal keeps no state
// of its own between folds. Recovery (Open on a non-empty directory) reads
// the checkpoint, replays the records after it, and stops at the first torn
// or corrupt one — a crash mid-append loses at most the record being
// written, which by protocol was not yet acknowledged to anyone — and Open's
// own checkpoint drops that tail.
//
// Appends are flushed to the OS on every call, so a killed *process* loses
// nothing that was acknowledged; Options.Fsync additionally fsyncs each
// append for power-loss durability. Kill and CrashAfter simulate SIGKILL and
// torn writes deterministically for the crash-chaos tests.
package journal

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/wire"
)

// walName is the log's file name inside Options.Dir.
const walName = "wal.log"

// logMagic opens the log.
var logMagic = []byte("XBJWAL1\n")

// Record types, each the type of its record's frame.
const (
	recAdmit      wire.FrameType = 1 // one request admitted to the pending set
	recCommit     wire.FrameType = 2 // one cycle's deliveries applied, cycle counter advanced
	recRemove     wire.FrameType = 3 // one request removed without delivery (administrative)
	recDocAdd     wire.FrameType = 4 // collection grew; payload is the new fingerprint
	recDocRemove  wire.FrameType = 5 // one document retired; pending remaining sets shrink
	recCheckpoint wire.FrameType = 6 // the log's first record: counters, served memory, admit count
)

// MaxDeliveries is the most deliveries one commit record holds: it stores
// their count in 16 bits. A server that journals keeps no more requests
// pending, so that a cycle delivering to each of them can count them.
const MaxDeliveries = 0xFFFF

// CommitLen is the frame payload length of a commit record of deliveries
// deliveries that carry docs documents in all: the record's sequence number,
// cycle and count, then each delivery's ID, count, documents and retired
// flag. A record must fit wire.MaxFramePayload, so a server that journals
// keeps this within it for a commit of every pending request's whole set.
func CommitLen(deliveries, docs int) int { return 8 + 8 + 2 + deliveries*(8+2+1) + 2*docs }

// checkpointLen is the checkpoint's fixed part: epoch, generation, next ID,
// cycle count, fingerprint and admit count. The served memory follows it,
// 16 bytes an entry.
const checkpointLen = 40

// Defaults for Options zero values.
const (
	// DefaultSnapshotEvery is the number of appended records between
	// automatic checkpoints.
	DefaultSnapshotEvery = 256
	// DefaultServedHorizon is how many recently retired requests a
	// ServedMemory keeps for the session-resume handshake's "already served"
	// answers.
	DefaultServedHorizon = 1024
)

// ErrClosed is returned by appends after Close, Kill, or a crash-point
// failure injected with CrashAfter.
var ErrClosed = errors.New("journal: closed")

// errCorrupt marks a record rejected during replay (a gap in the sequence
// or an undecodable payload). After the checkpoint, recovery treats it as
// the torn tail of the log, not a fatal error.
var errCorrupt = errors.New("journal: corrupt record")

// Options parameterises Open.
type Options struct {
	// Dir is the state directory; created if missing. Required.
	Dir string
	// Fsync fsyncs the log after every append. Without it appends are still
	// flushed to the OS (surviving a killed process), but a power failure
	// can lose the unsynced tail.
	Fsync bool
	// SnapshotEvery is the number of appended records between automatic
	// checkpoints. Zero selects DefaultSnapshotEvery; negative disables
	// automatic checkpoints (Close still writes one).
	SnapshotEvery int
}

// Request is one pending request as the journal records it.
type Request struct {
	// ID is the server-assigned request ID (admission order).
	ID int64
	// Arrival is the admission cycle number.
	Arrival int64
	// Query is the canonical XPath string.
	Query string
	// Remaining are the result documents not yet delivered.
	Remaining []uint16
}

// Delivery is one request's share of a committed cycle.
type Delivery struct {
	// ID is the request the documents were delivered to.
	ID int64
	// Docs are the document IDs removed from the request's remaining set.
	Docs []uint16
	// Retired marks the request as completed by this cycle.
	Retired bool
}

// ServedEntry remembers one retired request for session resumption.
type ServedEntry struct {
	// ID is the retired request.
	ID int64
	// Cycle is the cycle that completed it.
	Cycle int64
}

// ServedMemory is the bounded memory of retired requests that the
// session-resume handshake answers "already served" from: the last
// DefaultServedHorizon retirements, the oldest evicted first. Replay and the
// ledger each keep one, so both forget the same requests. The zero value is
// empty.
type ServedMemory struct {
	ring []ServedEntry
	head int // the oldest entry, once the ring is full
}

// Retire remembers request id as completed by cycle.
func (m *ServedMemory) Retire(id, cycle int64) {
	e := ServedEntry{ID: id, Cycle: cycle}
	if len(m.ring) < DefaultServedHorizon {
		m.ring = append(m.ring, e)
		return
	}
	m.ring[m.head] = e
	m.head = (m.head + 1) % len(m.ring)
}

// Lookup reports the cycle that completed request id, if it is remembered.
func (m *ServedMemory) Lookup(id int64) (cycle int64, ok bool) {
	for _, e := range m.ring {
		if e.ID == id {
			return e.Cycle, true
		}
	}
	return 0, false
}

// Entries copies the remembered retirements, oldest first.
func (m *ServedMemory) Entries() []ServedEntry {
	return append(slices.Clone(m.ring[m.head:]), m.ring[:m.head]...)
}

// State is what a state directory holds: the log's checkpoint with the
// intact records after it replayed over it.
type State struct {
	// Epoch identifies the journal lineage; it survives restarts.
	Epoch uint64
	// Generation counts recoveries: 1 on a fresh directory, +1 per Open.
	Generation uint32
	// NextID is the last assigned request ID.
	NextID int64
	// Cycles is the next cycle number to assemble (last committed + 1).
	Cycles int64
	// Fingerprint is the document-collection fingerprint at the last
	// recorded epoch event (see Fingerprint).
	Fingerprint uint64
	// Pending holds the outstanding requests in admission order, which is
	// increasing ID order.
	Pending []Request
	// Served remembers recently retired requests.
	Served ServedMemory
	// Truncated reports that a torn or corrupt tail follows the log records
	// replayed.
	Truncated bool

	// seq is the sequence number of the last record read; 0 when there is no
	// log.
	seq uint64
}

// pendingIndex locates a request by ID, or -1.
func (s *State) pendingIndex(id int64) int {
	i, ok := slices.BinarySearchFunc(s.Pending, id, func(r Request, id int64) int { return cmp.Compare(r.ID, id) })
	if !ok {
		return -1
	}
	return i
}

// Journal is an open write-ahead log. It keeps no copy of the state it logs:
// a checkpoint folds the log on disk through the recovery code. All methods
// are safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	dir  string
	opts Options

	f   *os.File // the log; nil once the journal is dead
	buf []byte   // frame scratch

	seq      uint64 // the last record's sequence number
	lastID   int64  // the last request ID handed to the log: replay refuses an admit at or below it
	appended int    // records since the last checkpoint

	// crashBudget, when >= 0, is the number of bytes the log will still
	// accept before the journal dies mid-write (torn append). -1 disables.
	crashBudget int64
}

// Open recovers the journal in dir (creating it when missing), bumps the
// restart generation, checkpoints the recovered state, which drops the log's
// torn tail, and returns the journal ready for appends plus that state, which
// the journal does not keep.
func Open(opts Options) (*Journal, *State, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("journal: Options.Dir is required")
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	st, err := ReadState(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	if st.seq == 0 { // no log: a fresh directory draws its lineage
		st.Epoch = uint64(time.Now().UnixNano())
	}
	st.Generation++

	// Checkpoint immediately: the bumped generation must be durable before
	// any new appends.
	j := &Journal{dir: opts.Dir, opts: opts, lastID: st.NextID, crashBudget: -1}
	if err := j.checkpoint(st); err != nil {
		return nil, nil, err
	}
	return j, st, nil
}

// ReadState reads the state a recovery of dir would start from and changes
// nothing on disk: no checkpoint, no generation bump. It is recovery's read
// half, shared by Open and compaction: it reads the checkpoint, where any
// fault is an error, and replays the records after it up to the first torn
// or corrupt one, setting Truncated when bytes follow that point. A directory
// without a journal reads as the zero State.
func ReadState(dir string) (*State, error) {
	// Open checkpoints at once, so a directory an older build wrote always
	// holds that build's checkpoint file.
	if _, err := os.Stat(filepath.Join(dir, "state.snap")); err == nil {
		return nil, fmt.Errorf("journal: %s holds state.snap, an older journal format this build does not read", dir)
	}
	st := &State{}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read log: %w", err)
	}
	if !bytes.HasPrefix(data, logMagic) {
		return nil, fmt.Errorf("journal: %s is not a journal log", filepath.Join(dir, walName))
	}
	r := bytes.NewReader(data[len(logMagic):])
	var buf []byte
	next := func() (wire.FrameType, []byte, error) {
		typ, p, err := wire.ReadFrameInto(r, &buf)
		if err == nil && (len(p) < 8 || binary.LittleEndian.Uint64(p) != st.seq+1) {
			err = fmt.Errorf("%w: record out of sequence after %d", errCorrupt, st.seq)
		}
		if err != nil {
			return 0, nil, err
		}
		st.seq++
		return typ, p[8:], nil
	}
	if err := readCheckpoint(st, next); err != nil {
		return nil, fmt.Errorf("journal: checkpoint: %w", err)
	}
	for r.Len() > 0 {
		typ, p, err := next()
		if err == nil {
			err = applyRecord(st, typ, p)
		}
		if err != nil {
			st.Truncated = true
			break
		}
	}
	return st, nil
}

// readCheckpoint reads the log's checkpoint into st, a zero State, with next
// as ReadState reads records: the checkpoint record, then its admit records, whose
// IDs must strictly increase and not exceed its next ID — the ledger serves
// the pending set in ID order.
func readCheckpoint(st *State, next func() (wire.FrameType, []byte, error)) error {
	typ, p, err := next()
	if err != nil {
		return err
	}
	if typ != recCheckpoint || len(p) < checkpointLen || (len(p)-checkpointLen)%16 != 0 {
		return fmt.Errorf("%w: type %d, %d bytes", errCorrupt, typ, len(p))
	}
	st.Epoch = binary.LittleEndian.Uint64(p)
	st.Generation = binary.LittleEndian.Uint32(p[8:])
	nextID := int64(binary.LittleEndian.Uint64(p[12:]))
	st.Cycles = int64(binary.LittleEndian.Uint64(p[20:]))
	st.Fingerprint = binary.LittleEndian.Uint64(p[28:])
	admits := binary.LittleEndian.Uint32(p[36:])
	for e := p[checkpointLen:]; len(e) > 0; e = e[16:] {
		st.Served.Retire(int64(binary.LittleEndian.Uint64(e)), int64(binary.LittleEndian.Uint64(e[8:])))
	}
	for ; admits > 0; admits-- {
		typ, p, err := next()
		if err == nil && typ != recAdmit {
			err = fmt.Errorf("%w: record type %d among the pending set", errCorrupt, typ)
		}
		if err == nil {
			err = applyRecord(st, typ, p) // refuses an ID at or below the one before
		}
		if err != nil {
			return err
		}
	}
	if st.NextID > nextID {
		return fmt.Errorf("%w: pending request %d above next ID %d", errCorrupt, st.NextID, nextID)
	}
	st.NextID = nextID
	return nil
}

// Admit appends one admission. The request is durably logged before Admit
// returns, so callers may acknowledge it to the client afterwards. IDs must
// increase: an admission at or below the last one is refused, unwritten.
func (j *Journal) Admit(r Request) error {
	if len(r.Query) > 0xFFFF {
		return fmt.Errorf("journal: query of %d bytes exceeds limit", len(r.Query))
	}
	if len(r.Remaining) > 0xFFFF {
		return fmt.Errorf("journal: %d remaining documents exceed limit", len(r.Remaining))
	}
	p := appendAdmit(make([]byte, 0, 64+len(r.Query)+2*len(r.Remaining)), r)
	j.mu.Lock()
	defer j.mu.Unlock()
	if r.ID <= j.lastID {
		return fmt.Errorf("journal: admit of request %d after request %d", r.ID, j.lastID)
	}
	// Claimed before the write: whatever appendLocked reports, the record
	// may be on disk, and any error it returns leaves the journal dead.
	j.lastID = r.ID
	return j.appendLocked(recAdmit, p)
}

// appendAdmit appends an admit record's payload for r to dst.
func appendAdmit(dst []byte, r Request) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Arrival))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Query)))
	dst = append(dst, r.Query...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Remaining)))
	for _, d := range r.Remaining {
		dst = binary.LittleEndian.AppendUint16(dst, d)
	}
	return dst
}

// Commit appends one cycle's deliveries: the remaining-set shrinkage per
// request, retirements, and the cycle-counter advance to cycle+1.
func (j *Journal) Commit(cycle int64, deliveries []Delivery) error {
	p := make([]byte, 0, 16+32*len(deliveries))
	p = binary.LittleEndian.AppendUint64(p, uint64(cycle))
	if len(deliveries) > MaxDeliveries {
		return fmt.Errorf("journal: %d deliveries exceed limit", len(deliveries))
	}
	p = binary.LittleEndian.AppendUint16(p, uint16(len(deliveries)))
	for _, d := range deliveries {
		p = binary.LittleEndian.AppendUint64(p, uint64(d.ID))
		if len(d.Docs) > 0xFFFF {
			return fmt.Errorf("journal: %d delivered documents exceed limit", len(d.Docs))
		}
		p = binary.LittleEndian.AppendUint16(p, uint16(len(d.Docs)))
		for _, doc := range d.Docs {
			p = binary.LittleEndian.AppendUint16(p, doc)
		}
		if d.Retired {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	return j.append(recCommit, p)
}

// Remove appends one administrative removal: the request leaves the pending
// set without joining the served memory.
func (j *Journal) Remove(id int64) error {
	p := binary.LittleEndian.AppendUint64(nil, uint64(id))
	return j.append(recRemove, p)
}

// DocAdded records a collection-grow event and the resulting fingerprint.
func (j *Journal) DocAdded(fingerprint uint64) error {
	p := binary.LittleEndian.AppendUint64(nil, fingerprint)
	return j.append(recDocAdd, p)
}

// DocRemoved records a document retirement: every pending request drops doc
// from its remaining set, and requests thereby satisfied retire as served.
func (j *Journal) DocRemoved(doc uint16, fingerprint uint64) error {
	p := binary.LittleEndian.AppendUint64(nil, fingerprint)
	p = binary.LittleEndian.AppendUint16(p, doc)
	return j.append(recDocRemove, p)
}

// Snapshot checkpoints now: the log is rewritten as its folded state. A
// failed checkpoint kills the journal.
func (j *Journal) Snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrClosed
	}
	return j.compactLocked()
}

// Close checkpoints and closes the journal. Further appends fail with
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.compactLocked()
	if j.f != nil {
		err = cmp.Or(err, j.f.Close())
		j.f = nil
	}
	return err
}

// Kill is the SIGKILL equivalent: the journal dies in place with no final
// checkpoint, flush or fsync. Durable state is whatever previous appends
// already pushed to the OS (everything, unless CrashAfter tore the tail).
func (j *Journal) Kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.die()
}

// die closes the log in place, so every later call fails with ErrClosed.
// Called with j.mu held.
func (j *Journal) die() {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// CrashAfter arms a deterministic torn-write crash point: the log accepts at
// most n more bytes, then the journal dies mid-record — the partial frame is
// on disk, exactly as a power cut mid-append would leave it. n = 0 kills the
// next append before it writes anything.
func (j *Journal) CrashAfter(n int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crashBudget = n
}

// append frames and writes one record.
func (j *Journal) append(typ wire.FrameType, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(typ, payload)
}

// appendLocked frames and writes one record, then checkpoints when one is
// due; the caller-visible error is nil only once the bytes reached the OS
// (and the disk under Fsync). Every error after the record is framed leaves
// the journal dead. Called with j.mu held.
func (j *Journal) appendLocked(typ wire.FrameType, payload []byte) error {
	if j.f == nil {
		return ErrClosed
	}
	frame, err := appendRecordFrame(j.buf[:0], typ, j.seq+1, payload)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.buf = frame[:0]
	j.seq++

	if j.crashBudget >= 0 && int64(len(frame)) > j.crashBudget {
		// Torn write: part of the frame lands, then the "machine" dies.
		_, _ = j.f.Write(frame[:j.crashBudget])
		j.die()
		return fmt.Errorf("journal: %w (crash point)", ErrClosed)
	}
	if j.crashBudget >= 0 {
		j.crashBudget -= int64(len(frame))
	}
	if _, err := j.f.Write(frame); err != nil {
		j.die()
		return fmt.Errorf("journal: append: %w", err)
	}
	if j.opts.Fsync {
		if err := j.f.Sync(); err != nil {
			j.die()
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	j.appended++
	if j.opts.SnapshotEvery > 0 && j.appended >= j.opts.SnapshotEvery {
		return j.compactLocked()
	}
	return nil
}

// compactLocked folds the log through ReadState, the code Open recovers with,
// and checkpoints the result. The log must read back to the last record this
// journal wrote: a fold that stops short leaves the log as it is, for Open
// to recover the intact prefix. A failed compaction kills the journal, like
// a failed append: the records it could not fold are on disk, and a live
// journal would re-read an ever longer log. Called with j.mu held.
func (j *Journal) compactLocked() error {
	st, err := ReadState(j.dir)
	if err == nil && (st.Truncated || st.seq != j.seq) {
		err = fmt.Errorf("journal: compaction read the log back to record %d of %d", st.seq, j.seq)
	}
	if err == nil {
		err = j.checkpoint(st)
	}
	if err != nil {
		j.die()
	}
	return err
}

// checkpoint rewrites the log as st's checkpoint: written to a temporary
// file, fsynced and renamed over the log, and kept open as the log the next
// appends go to. A crash before the rename leaves the old log whole and the
// temporary file, which nothing reads, behind. Called with j.mu held, or by
// Open before the journal has a log.
func (j *Journal) checkpoint(st *State) error {
	data, seq, err := encodeCheckpoint(st)
	if err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	path := filepath.Join(j.dir, walName)
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if j.f != nil {
		j.f.Close() // the log it replaces
		j.f = nil
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	syncDir(j.dir)
	j.f, j.seq, j.appended = f, seq, 0
	return nil
}

// encodeCheckpoint encodes st as a log that holds only its checkpoint: the
// magic, the checkpoint record and one admit record per pending request,
// numbered from 1. It returns the log and its last sequence number.
func encodeCheckpoint(st *State) ([]byte, uint64, error) {
	served := st.Served.Entries()
	p := make([]byte, 0, checkpointLen+16*len(served))
	p = binary.LittleEndian.AppendUint64(p, st.Epoch)
	p = binary.LittleEndian.AppendUint32(p, st.Generation)
	p = binary.LittleEndian.AppendUint64(p, uint64(st.NextID))
	p = binary.LittleEndian.AppendUint64(p, uint64(st.Cycles))
	p = binary.LittleEndian.AppendUint64(p, st.Fingerprint)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(st.Pending)))
	for _, e := range served {
		p = binary.LittleEndian.AppendUint64(p, uint64(e.ID))
		p = binary.LittleEndian.AppendUint64(p, uint64(e.Cycle))
	}
	out, err := appendRecordFrame(append([]byte(nil), logMagic...), recCheckpoint, 1, p)
	seq := uint64(1)
	for _, r := range st.Pending {
		if err != nil {
			break
		}
		seq++
		p = appendAdmit(p[:0], r)
		out, err = appendRecordFrame(out, recAdmit, seq, p)
	}
	return out, seq, err
}

// appendRecordFrame appends one record to dst: a wire frame of type typ
// whose payload is seq, then body.
func appendRecordFrame(dst []byte, typ wire.FrameType, seq uint64, body []byte) ([]byte, error) {
	dst, start := wire.StartFrame(dst)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return wire.FinishFrame(append(dst, body...), start, typ)
}

// syncDir best-effort fsyncs a directory so renames survive power loss.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// applyRecord applies one record's payload to st. Decode errors, and an
// admission whose ID does not exceed every ID before it, leave st untouched
// and report errCorrupt.
func applyRecord(st *State, typ wire.FrameType, p []byte) error {
	switch typ {
	case recAdmit:
		r, err := decodeAdmit(p)
		if err != nil {
			return err
		}
		if r.ID <= st.NextID {
			return fmt.Errorf("%w: admit %d after request %d", errCorrupt, r.ID, st.NextID)
		}
		st.Pending = append(st.Pending, r)
		st.NextID = r.ID
	case recCommit:
		cycle, deliveries, err := decodeCommit(p)
		if err != nil {
			return err
		}
		retired := false
		for _, d := range deliveries {
			i := st.pendingIndex(d.ID)
			if i < 0 || st.Pending[i].Remaining == nil {
				continue // not pending, or retired by this record
			}
			req := &st.Pending[i]
			// A delivery is a cycle's few documents: a scan beats a set.
			req.Remaining = slices.DeleteFunc(req.Remaining, func(doc uint16) bool { return slices.Contains(d.Docs, doc) })
			if d.Retired || len(req.Remaining) == 0 {
				st.retire(req, cycle)
				retired = true
			}
		}
		if retired {
			st.sweep()
		}
		if cycle+1 > st.Cycles {
			st.Cycles = cycle + 1
		}
	case recRemove:
		if len(p) != 8 {
			return fmt.Errorf("%w: remove payload %d bytes", errCorrupt, len(p))
		}
		id := int64(binary.LittleEndian.Uint64(p))
		if i := st.pendingIndex(id); i >= 0 {
			st.Pending = append(st.Pending[:i], st.Pending[i+1:]...)
		}
	case recDocAdd:
		if len(p) != 8 {
			return fmt.Errorf("%w: doc-add payload %d bytes", errCorrupt, len(p))
		}
		st.Fingerprint = binary.LittleEndian.Uint64(p)
	case recDocRemove:
		if len(p) != 10 {
			return fmt.Errorf("%w: doc-remove payload %d bytes", errCorrupt, len(p))
		}
		st.Fingerprint = binary.LittleEndian.Uint64(p)
		doc := binary.LittleEndian.Uint16(p[8:])
		for i := range st.Pending {
			req := &st.Pending[i]
			kept := req.Remaining[:0]
			for _, d := range req.Remaining {
				if d != doc {
					kept = append(kept, d)
				}
			}
			req.Remaining = kept
			if len(kept) == 0 {
				st.retire(req, st.Cycles)
			}
		}
		st.sweep()
	default:
		return fmt.Errorf("%w: unknown record type %d", errCorrupt, typ)
	}
	return nil
}

// retire moves pending request r into the served memory and marks it
// retired (a nil Remaining) for sweep to drop, so that a record retiring
// many requests costs one pass over the pending set.
func (s *State) retire(r *Request, cycle int64) {
	s.Served.Retire(r.ID, cycle)
	r.Remaining = nil
}

// sweep drops the requests retire marked, keeping the rest in ID order.
func (s *State) sweep() {
	s.Pending = slices.DeleteFunc(s.Pending, func(r Request) bool { return r.Remaining == nil })
}

func decodeAdmit(p []byte) (Request, error) {
	var r Request
	if len(p) < 18 {
		return r, fmt.Errorf("%w: admit payload %d bytes", errCorrupt, len(p))
	}
	r.ID = int64(binary.LittleEndian.Uint64(p))
	r.Arrival = int64(binary.LittleEndian.Uint64(p[8:]))
	qlen := int(binary.LittleEndian.Uint16(p[16:]))
	p = p[18:]
	if len(p) < qlen+2 {
		return r, fmt.Errorf("%w: admit query truncated", errCorrupt)
	}
	r.Query = string(p[:qlen])
	p = p[qlen:]
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) != 2*n {
		return r, fmt.Errorf("%w: admit remaining truncated", errCorrupt)
	}
	r.Remaining = make([]uint16, n)
	for i := 0; i < n; i++ {
		r.Remaining[i] = binary.LittleEndian.Uint16(p[2*i:])
	}
	return r, nil
}

func decodeCommit(p []byte) (int64, []Delivery, error) {
	if len(p) < 10 {
		return 0, nil, fmt.Errorf("%w: commit payload %d bytes", errCorrupt, len(p))
	}
	cycle := int64(binary.LittleEndian.Uint64(p))
	n := int(binary.LittleEndian.Uint16(p[8:]))
	p = p[10:]
	deliveries := make([]Delivery, 0, n)
	for i := 0; i < n; i++ {
		if len(p) < 10 {
			return 0, nil, fmt.Errorf("%w: commit delivery truncated", errCorrupt)
		}
		var d Delivery
		d.ID = int64(binary.LittleEndian.Uint64(p))
		nd := int(binary.LittleEndian.Uint16(p[8:]))
		p = p[10:]
		if len(p) < 2*nd+1 {
			return 0, nil, fmt.Errorf("%w: commit documents truncated", errCorrupt)
		}
		d.Docs = make([]uint16, nd)
		for k := 0; k < nd; k++ {
			d.Docs[k] = binary.LittleEndian.Uint16(p[2*k:])
		}
		p = p[2*nd:]
		d.Retired = p[0] == 1
		p = p[1:]
		deliveries = append(deliveries, d)
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("%w: commit trailing bytes", errCorrupt)
	}
	return cycle, deliveries, nil
}

// Fingerprint is the order-independent collection fingerprint the server
// journals with epoch events: XOR of per-document hashes, so adds and
// removes update it incrementally. docs maps document ID to byte size.
func Fingerprint(docs map[uint16]int) uint64 {
	var fp uint64
	for id, size := range docs {
		fp ^= DocHash(id, size)
	}
	return fp
}

// DocHash is one document's fingerprint contribution (see Fingerprint).
func DocHash(id uint16, size int) uint64 {
	x := uint64(id)<<32 ^ uint64(uint32(size))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
