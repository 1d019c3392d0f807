// Package journal is the broadcast server's durability layer: an
// append-only, CRC-framed write-ahead log of pending-set events (admissions,
// cycle commits, request and document removals) compacted by periodic
// snapshots, so a killed server restarts with the exact pending set it had
// durably acknowledged and resumes cycle assembly from the last committed
// cycle.
//
// The design follows the classic WAL + checkpoint recipe:
//
//   - every state change is appended to wal.log as a sync-byte + CRC32C
//     framed record carrying a monotonically increasing sequence number;
//   - every Options.SnapshotEvery records (and on clean Close) the snapshot
//     and the log are folded by the recovery code into a new state.snap,
//     written via write-to-temp + atomic rename, and the log is truncated —
//     replay after a checkpoint skips records whose sequence the snapshot
//     already covers, so a crash between rename and truncate never
//     double-applies. The journal keeps no state of its own between folds;
//   - recovery (Open on a non-empty directory) loads the snapshot, replays
//     the log, and stops at the first torn or corrupt record, truncating the
//     tail — a crash mid-append loses at most the record being written,
//     which by protocol was not yet acknowledged to anyone.
//
// Appends are flushed to the OS on every call, so a killed *process* loses
// nothing that was acknowledged; Options.Fsync additionally fsyncs each
// append for power-loss durability. Kill and CrashAfter simulate SIGKILL and
// torn writes deterministically for the crash-chaos tests.
package journal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// File names inside Options.Dir.
const (
	walName      = "wal.log"
	snapName     = "state.snap"
	snapTempName = "state.snap.tmp"
)

// snapMagic opens a snapshot file.
var snapMagic = []byte("XBJSNP01")

// Record sync bytes: every WAL record and snapshot body starts with this
// pair, so recovery can distinguish a torn tail from garbage.
const (
	recSync0 = 0xD5
	recSync1 = 0x1E
)

// Record types.
const (
	recAdmit     = 1 // one request admitted to the pending set
	recCommit    = 2 // one cycle's deliveries applied, cycle counter advanced
	recRemove    = 3 // one request removed without delivery (administrative)
	recDocAdd    = 4 // collection grew; payload is the new fingerprint
	recDocRemove = 5 // one document retired; pending remaining sets shrink
	recSnapshot  = 6 // full state (snapshot files only)
)

// recHdrLen is sync(2) + type(1) + length(4); recCRCLen trails the payload.
const (
	recHdrLen = 7
	recCRCLen = 4
)

// maxRecord bounds record payloads defensively (16 MiB).
const maxRecord = 16 << 20

// Defaults for Options zero values.
const (
	// DefaultSnapshotEvery is the number of appended records between
	// automatic compacting snapshots.
	DefaultSnapshotEvery = 256
	// DefaultServedHorizon is how many recently retired requests a
	// ServedMemory keeps for the session-resume handshake's "already served"
	// answers.
	DefaultServedHorizon = 1024
)

// castagnoli is the CRC32C table shared by all record writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends after Close, Kill, or a crash-point
// failure injected with CrashAfter.
var ErrClosed = errors.New("journal: closed")

// errCorrupt marks a record rejected during replay (bad sync, insane length,
// checksum mismatch, or undecodable payload). Recovery treats it as the torn
// tail of the log, not a fatal error.
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
	// compacting snapshots. Zero selects DefaultSnapshotEvery; negative
	// disables automatic snapshots (Close still writes one).
	SnapshotEvery int
	// Epoch identifies the journal lineage in the session-resume handshake.
	// Used only when the directory is fresh; zero draws from the clock.
	Epoch uint64
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

// State is what a state directory holds: the snapshot with the log's intact
// prefix replayed over it.
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
	// Replayed is the number of log records applied.
	Replayed int

	// seq is the last sequence number loaded: the snapshot's watermark, then
	// each replayed record's. intact is the byte length of the log prefix
	// replay read.
	seq    uint64
	intact int64
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
// a compaction folds the files on disk through the recovery code. All methods
// are safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	dir  string
	opts Options

	f   *os.File // the log; nil once the journal is dead
	buf []byte   // frame scratch

	seq      uint64 // last assigned record sequence number
	lastID   int64  // the last request ID handed to the log: replay refuses an admit at or below it
	appended int    // records since the last snapshot

	// crashBudget, when >= 0, is the number of bytes the log will still
	// accept before the journal dies mid-write (torn append). -1 disables.
	crashBudget int64
}

// Open recovers the journal in dir (creating it when missing), truncates the
// log's torn tail, bumps the restart generation, checkpoints the recovered
// state, and returns the journal ready for appends plus that state, which the
// journal does not keep.
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
	st, fresh, err := load(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	walPath := filepath.Join(opts.Dir, walName)
	if st.Truncated {
		if err := os.Truncate(walPath, st.intact); err != nil {
			return nil, nil, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if fresh {
		st.Epoch = opts.Epoch
		if st.Epoch == 0 {
			st.Epoch = uint64(time.Now().UnixNano())
		}
	}
	st.Generation++

	// Checkpoint immediately: the bumped generation (and the compacted
	// recovered state) must be durable before any new appends.
	j := &Journal{dir: opts.Dir, opts: opts, seq: st.seq, lastID: st.NextID, crashBudget: -1}
	if err := j.checkpoint(st); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open log: %w", err)
	}
	j.f = f
	return j, st, nil
}

// ReadState reads the state a recovery of dir would start from — the
// snapshot with the log's intact prefix replayed over it — and changes
// nothing on disk: no tail truncation, no generation bump. A directory
// without a journal reads as the zero State.
func ReadState(dir string) (*State, error) {
	st, _, err := load(dir)
	return st, err
}

// load is recovery's read half, shared by Open, ReadState and compaction: it
// decodes the snapshot and replays the log over it up to the first torn or
// corrupt record, setting Truncated when bytes follow that point. Reports
// whether the directory held no prior state.
func load(dir string) (st *State, fresh bool, err error) {
	st = &State{}
	snapData, err := os.ReadFile(filepath.Join(dir, snapName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		fresh = true
	case err != nil:
		return nil, false, fmt.Errorf("journal: read snapshot: %w", err)
	default:
		if err := decodeSnapshot(snapData, st); err != nil {
			return nil, false, fmt.Errorf("journal: %w", err)
		}
	}

	walData, err := os.ReadFile(filepath.Join(dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return st, fresh, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("journal: read log: %w", err)
	}
	if len(walData) > 0 {
		fresh = false
	}
	st.intact = int64(replay(walData, st))
	st.Truncated = st.intact < int64(len(walData))
	return st, fresh, nil
}

// Admit appends one admission. The request is durably logged before Admit
// returns, so callers may acknowledge it to the client afterwards. IDs must
// increase: an admission at or below the last one is refused, unwritten.
func (j *Journal) Admit(r Request) error {
	p := make([]byte, 0, 64+len(r.Query)+2*len(r.Remaining))
	p = binary.LittleEndian.AppendUint64(p, uint64(r.ID))
	p = binary.LittleEndian.AppendUint64(p, uint64(r.Arrival))
	if len(r.Query) > 0xFFFF {
		return fmt.Errorf("journal: query of %d bytes exceeds limit", len(r.Query))
	}
	p = binary.LittleEndian.AppendUint16(p, uint16(len(r.Query)))
	p = append(p, r.Query...)
	if len(r.Remaining) > 0xFFFF {
		return fmt.Errorf("journal: %d remaining documents exceed limit", len(r.Remaining))
	}
	p = binary.LittleEndian.AppendUint16(p, uint16(len(r.Remaining)))
	for _, d := range r.Remaining {
		p = binary.LittleEndian.AppendUint16(p, d)
	}
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

// Commit appends one cycle's deliveries: the remaining-set shrinkage per
// request, retirements, and the cycle-counter advance to cycle+1.
func (j *Journal) Commit(cycle int64, deliveries []Delivery) error {
	p := make([]byte, 0, 16+32*len(deliveries))
	p = binary.LittleEndian.AppendUint64(p, uint64(cycle))
	if len(deliveries) > 0xFFFF {
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

// Snapshot compacts now: the snapshot and the log fold into a new snapshot
// and the log is truncated. A failed compaction kills the journal.
func (j *Journal) Snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrClosed
	}
	return j.compactLocked()
}

// Close compacts and closes the journal. Further appends fail with
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
func (j *Journal) append(typ byte, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(typ, payload)
}

// appendLocked frames and writes one record, then compacts when one is due;
// the caller-visible error is nil only once the bytes reached the OS (and the
// disk under Fsync). Every error leaves the journal dead. Called with j.mu
// held.
func (j *Journal) appendLocked(typ byte, payload []byte) error {
	if j.f == nil {
		return ErrClosed
	}
	j.seq++
	frame := appendRecord(j.buf[:0], typ, j.seq, payload)
	j.buf = frame[:0]

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

// compactLocked folds the snapshot and the log through load, the code Open
// recovers with, and checkpoints the result. The log must read back to the
// last record this journal wrote: a fold that stops short leaves both files
// as they are, for Open to recover the intact prefix. A failed compaction
// kills the journal, like a failed append: the records it could not fold
// are on disk, and a live journal would re-read an ever longer log. Called
// with j.mu held.
func (j *Journal) compactLocked() error {
	st, _, err := load(j.dir)
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

// checkpoint writes st as the snapshot at j.seq, atomically, and truncates
// the log. Called with j.mu held, or by Open before the log is open.
func (j *Journal) checkpoint(st *State) error {
	snap := encodeSnapshot(st, j.seq)
	tmp := filepath.Join(j.dir, snapTempName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	_, err = f.Write(snap)
	if err == nil {
		err = f.Sync()
	}
	if err = cmp.Or(err, f.Close()); err == nil {
		err = os.Rename(tmp, filepath.Join(j.dir, snapName))
	}
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	syncDir(j.dir)
	// The snapshot covers every logged record; restart the log (it is open
	// for appending, so the next write lands at the new end). A crash
	// between the rename and this truncate double-covers records, which
	// replay skips by sequence number.
	if err := os.Truncate(filepath.Join(j.dir, walName), 0); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("journal: truncate log: %w", err)
	}
	j.appended = 0
	return nil
}

// syncDir best-effort fsyncs a directory so renames survive power loss.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// --- record framing -------------------------------------------------------

// appendRecord frames one record: sync bytes, type, payload length, the
// sequence number + payload, and a CRC32C trailer over type/length/body.
func appendRecord(dst []byte, typ byte, seq uint64, payload []byte) []byte {
	body := 8 + len(payload)
	dst = append(dst, recSync0, recSync1, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	crcFrom := len(dst) - 5 // type + length
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[crcFrom:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// readRecord parses one record at data[off:], returning the type, sequence,
// payload and the offset past the record. Torn or corrupt data returns
// errCorrupt (io.EOF when off is exactly at the end).
func readRecord(data []byte, off int) (typ byte, seq uint64, payload []byte, next int, err error) {
	if off == len(data) {
		return 0, 0, nil, off, io.EOF
	}
	if off+recHdrLen > len(data) {
		return 0, 0, nil, off, errCorrupt
	}
	if data[off] != recSync0 || data[off+1] != recSync1 {
		return 0, 0, nil, off, errCorrupt
	}
	typ = data[off+2]
	n := int(binary.LittleEndian.Uint32(data[off+3:]))
	if n < 8 || n > maxRecord {
		return 0, 0, nil, off, errCorrupt
	}
	end := off + recHdrLen + n + recCRCLen
	if end > len(data) {
		return 0, 0, nil, off, errCorrupt
	}
	body := data[off+recHdrLen : off+recHdrLen+n]
	got := binary.LittleEndian.Uint32(data[off+recHdrLen+n:])
	if want := crc32.Checksum(data[off+2:off+recHdrLen+n], castagnoli); got != want {
		return 0, 0, nil, off, errCorrupt
	}
	seq = binary.LittleEndian.Uint64(body)
	return typ, seq, body[8:], end, nil
}

// replay applies log records to st, skipping records the snapshot already
// covers, and returns the byte offset of the last good record boundary.
func replay(data []byte, st *State) (good int) {
	off := 0
	for {
		typ, recSeq, payload, next, err := readRecord(data, off)
		if err != nil {
			return off
		}
		if recSeq > st.seq {
			if recSeq != st.seq+1 {
				// A gap means the log is not the snapshot's continuation;
				// treat everything from here as corrupt.
				return off
			}
			if err := applyRecord(st, typ, payload); err != nil {
				return off
			}
			st.seq = recSeq
			st.Replayed++
		}
		off = next
	}
}

// applyRecord applies one record's payload to st. Decode errors, and an
// admission whose ID does not exceed every ID before it, leave st untouched
// and report errCorrupt.
func applyRecord(st *State, typ byte, p []byte) error {
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
		for _, d := range deliveries {
			i := st.pendingIndex(d.ID)
			if i < 0 {
				continue
			}
			req := &st.Pending[i]
			// A delivery is a cycle's few documents: a scan beats a set.
			req.Remaining = slices.DeleteFunc(req.Remaining, func(doc uint16) bool { return slices.Contains(d.Docs, doc) })
			if d.Retired || len(req.Remaining) == 0 {
				st.retire(i, cycle)
			}
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
		for i := 0; i < len(st.Pending); {
			req := &st.Pending[i]
			kept := req.Remaining[:0]
			for _, d := range req.Remaining {
				if d != doc {
					kept = append(kept, d)
				}
			}
			req.Remaining = kept
			if len(kept) == 0 {
				st.retire(i, st.Cycles)
				continue
			}
			i++
		}
	default:
		return fmt.Errorf("%w: unknown record type %d", errCorrupt, typ)
	}
	return nil
}

// retire moves Pending[i] into the served memory.
func (s *State) retire(i int, cycle int64) {
	s.Served.Retire(s.Pending[i].ID, cycle)
	s.Pending = append(s.Pending[:i], s.Pending[i+1:]...)
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

// --- snapshot encoding ----------------------------------------------------

// encodeSnapshot serialises the full state as the snapshot magic followed by
// one framed recSnapshot record whose sequence is the log floor.
func encodeSnapshot(st *State, seq uint64) []byte {
	served := st.Served.Entries()
	p := make([]byte, 0, 64+64*len(st.Pending)+16*len(served))
	p = binary.LittleEndian.AppendUint64(p, st.Epoch)
	p = binary.LittleEndian.AppendUint32(p, st.Generation)
	p = binary.LittleEndian.AppendUint64(p, uint64(st.NextID))
	p = binary.LittleEndian.AppendUint64(p, uint64(st.Cycles))
	p = binary.LittleEndian.AppendUint64(p, st.Fingerprint)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(st.Pending)))
	for _, r := range st.Pending {
		p = binary.LittleEndian.AppendUint64(p, uint64(r.ID))
		p = binary.LittleEndian.AppendUint64(p, uint64(r.Arrival))
		p = binary.LittleEndian.AppendUint16(p, uint16(len(r.Query)))
		p = append(p, r.Query...)
		p = binary.LittleEndian.AppendUint16(p, uint16(len(r.Remaining)))
		for _, d := range r.Remaining {
			p = binary.LittleEndian.AppendUint16(p, d)
		}
	}
	p = binary.LittleEndian.AppendUint32(p, uint32(len(served)))
	for _, e := range served {
		p = binary.LittleEndian.AppendUint64(p, uint64(e.ID))
		p = binary.LittleEndian.AppendUint64(p, uint64(e.Cycle))
	}
	out := append([]byte(nil), snapMagic...)
	return appendRecord(out, recSnapshot, seq, p)
}

// decodeSnapshot is the inverse of encodeSnapshot. It fills st, a zero
// State, and its seq from the framed record. Pending IDs must increase and
// not exceed NextID: the ledger serves the pending set in ID order.
func decodeSnapshot(data []byte, st *State) error {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != string(snapMagic) {
		return fmt.Errorf("%w: bad snapshot magic", errCorrupt)
	}
	typ, seq, p, next, err := readRecord(data, len(snapMagic))
	if err != nil || typ != recSnapshot || next != len(data) {
		return fmt.Errorf("%w: bad snapshot record", errCorrupt)
	}
	read := func(n int) ([]byte, bool) {
		if len(p) < n {
			return nil, false
		}
		out := p[:n]
		p = p[n:]
		return out, true
	}
	hdr, ok := read(36)
	if !ok {
		return fmt.Errorf("%w: snapshot header truncated", errCorrupt)
	}
	st.Epoch = binary.LittleEndian.Uint64(hdr)
	st.Generation = binary.LittleEndian.Uint32(hdr[8:])
	st.NextID = int64(binary.LittleEndian.Uint64(hdr[12:]))
	st.Cycles = int64(binary.LittleEndian.Uint64(hdr[20:]))
	st.Fingerprint = binary.LittleEndian.Uint64(hdr[28:])
	nb, ok := read(4)
	if !ok {
		return fmt.Errorf("%w: snapshot pending count truncated", errCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(nb))
	if n > maxRecord {
		return fmt.Errorf("%w: snapshot pending count %d", errCorrupt, n)
	}
	for i := 0; i < n; i++ {
		hdr, ok := read(18)
		if !ok {
			return fmt.Errorf("%w: snapshot request truncated", errCorrupt)
		}
		var r Request
		r.ID = int64(binary.LittleEndian.Uint64(hdr))
		if r.ID > st.NextID || len(st.Pending) > 0 && r.ID <= st.Pending[len(st.Pending)-1].ID {
			return fmt.Errorf("%w: snapshot pending request %d out of order", errCorrupt, r.ID)
		}
		r.Arrival = int64(binary.LittleEndian.Uint64(hdr[8:]))
		qb, ok := read(int(binary.LittleEndian.Uint16(hdr[16:])))
		if !ok {
			return fmt.Errorf("%w: snapshot query truncated", errCorrupt)
		}
		r.Query = string(qb)
		cb, ok := read(2)
		if !ok {
			return fmt.Errorf("%w: snapshot remaining truncated", errCorrupt)
		}
		nd := int(binary.LittleEndian.Uint16(cb))
		db, ok := read(2 * nd)
		if !ok {
			return fmt.Errorf("%w: snapshot remaining truncated", errCorrupt)
		}
		r.Remaining = make([]uint16, nd)
		for k := 0; k < nd; k++ {
			r.Remaining[k] = binary.LittleEndian.Uint16(db[2*k:])
		}
		st.Pending = append(st.Pending, r)
	}
	nb, ok = read(4)
	if !ok {
		return fmt.Errorf("%w: snapshot served count truncated", errCorrupt)
	}
	n = int(binary.LittleEndian.Uint32(nb))
	if n > maxRecord {
		return fmt.Errorf("%w: snapshot served count %d", errCorrupt, n)
	}
	for i := 0; i < n; i++ {
		eb, ok := read(16)
		if !ok {
			return fmt.Errorf("%w: snapshot served truncated", errCorrupt)
		}
		st.Served.Retire(int64(binary.LittleEndian.Uint64(eb)), int64(binary.LittleEndian.Uint64(eb[8:])))
	}
	if len(p) != 0 {
		return fmt.Errorf("%w: snapshot trailing bytes", errCorrupt)
	}
	st.seq = seq
	return nil
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
