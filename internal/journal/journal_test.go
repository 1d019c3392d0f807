package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func mustOpen(t *testing.T, opts Options) (*Journal, *State) {
	t.Helper()
	j, st, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, st
}

func req(id int64, arrival int64, q string, rem ...uint16) Request {
	return Request{ID: id, Arrival: arrival, Query: q, Remaining: rem}
}

func mustRead(t *testing.T, dir string) *State {
	t.Helper()
	st, err := ReadState(dir)
	if err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	return st
}

// pendingIDs lists the pending request IDs in the state's order.
func pendingIDs(st *State) []int64 {
	ids := make([]int64, 0, len(st.Pending))
	for _, r := range st.Pending {
		ids = append(ids, r.ID)
	}
	return ids
}

// served reports whether the state remembers request id as retired.
func served(st *State, id int64) bool {
	_, ok := st.Served.Lookup(id)
	return ok
}

// TestRoundTrip admits, commits, kills and recovers: the recovered state
// must be what the records add up to, under the epoch the first Open drew.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, st := mustOpen(t, Options{Dir: dir})
	epoch := st.Epoch
	if st.Generation != 1 || epoch == 0 {
		t.Fatalf("fresh state: gen=%d epoch=%d", st.Generation, epoch)
	}

	if err := j.Admit(req(1, 0, "/a/b", 3, 5, 9)); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(2, 0, "//c", 5)); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(0, []Delivery{{ID: 1, Docs: []uint16{5}}, {ID: 2, Docs: []uint16{5}, Retired: true}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(3, 1, "/x", 7)); err != nil {
		t.Fatal(err)
	}
	if err := j.DocAdded(0xDEAD); err != nil {
		t.Fatal(err)
	}
	j.Kill()

	j2, got := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if got.Epoch != epoch {
		t.Errorf("epoch: got %d want %d", got.Epoch, epoch)
	}
	if got.Generation != 2 {
		t.Errorf("generation: got %d want 2", got.Generation)
	}
	if got.NextID != 3 {
		t.Errorf("nextID: got %d want 3", got.NextID)
	}
	if got.Cycles != 1 {
		t.Errorf("cycles: got %d want 1", got.Cycles)
	}
	if got.Fingerprint != 0xDEAD {
		t.Errorf("fingerprint: got %#x want 0xDEAD", got.Fingerprint)
	}
	if want := []Request{req(1, 0, "/a/b", 3, 9), req(3, 1, "/x", 7)}; !reflect.DeepEqual(got.Pending, want) {
		t.Errorf("pending mismatch:\n got  %+v\n want %+v", got.Pending, want)
	}
	if want := []ServedEntry{{ID: 2, Cycle: 0}}; !reflect.DeepEqual(got.Served.Entries(), want) {
		t.Errorf("served mismatch:\n got  %+v\n want %+v", got.Served.Entries(), want)
	}
}

// TestTornTailTruncated cuts the log mid-record at every byte offset of the
// final record; recovery must drop exactly that record and keep the prefix.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if err := j.Admit(req(1, 0, "/a", 2)); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	prefix, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(2, 0, "/b", 4)); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	j.Kill()
	if len(full) <= len(prefix) {
		t.Fatalf("second record added no bytes: %d vs %d", len(full), len(prefix))
	}

	for cut := len(prefix); cut < len(full); cut++ {
		work := t.TempDir()
		if err := os.WriteFile(filepath.Join(work, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, st := mustOpen(t, Options{Dir: work})
		if cut > len(prefix) && !st.Truncated {
			t.Errorf("cut=%d: torn tail not reported", cut)
		}
		if want := []int64{1}; !reflect.DeepEqual(pendingIDs(st), want) {
			t.Errorf("cut=%d: pending IDs %v, want %v", cut, pendingIDs(st), want)
		}
		j2.Close()
	}
}

// TestCorruptMiddleStopsReplay flips a byte inside the first record after
// the checkpoint, or cuts that record out whole; replay must stop there,
// losing both records but never panicking.
func TestCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	checkpoint := logSize(t, dir)
	if err := j.Admit(req(1, 0, "/a", 2)); err != nil {
		t.Fatal(err)
	}
	first := logSize(t, dir)
	if err := j.Admit(req(2, 0, "/b", 4)); err != nil {
		t.Fatal(err)
	}
	j.Kill()
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[checkpoint+wire.FrameHeaderLen+3] ^= 0xFF // inside the first record's body
	for name, log := range map[string][]byte{"flipped": flipped, "gap": append(data[:checkpoint:checkpoint], data[first:]...)} {
		work := t.TempDir()
		if err := os.WriteFile(filepath.Join(work, walName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, st := mustOpen(t, Options{Dir: work})
		if !st.Truncated || len(st.Pending) != 0 {
			t.Errorf("%s: recovered pending %+v (truncated %v), want none, truncated", name, st.Pending, st.Truncated)
		}
		j2.Close()
	}
}

// TestSnapshotCompaction drives enough appends to trigger automatic
// checkpoints and verifies the log is compacted and recovery still exact.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: 8})
	// Every fifth admission commits a cycle that retires the request
	// admitted four before it: requests 1, 6, …, 36 retire at cycles 0…7.
	var want []Request
	var wantServed []ServedEntry
	for i := int64(1); i <= 40; i++ {
		if err := j.Admit(req(i, i/4, "/q", uint16(i), uint16(i+1))); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := j.Commit(i/5-1, []Delivery{{ID: i - 4, Docs: []uint16{uint16(i - 4)}, Retired: true}}); err != nil {
				t.Fatal(err)
			}
		}
		if i%5 == 1 {
			wantServed = append(wantServed, ServedEntry{ID: i, Cycle: i / 5})
		} else {
			want = append(want, req(i, i/4, "/q", uint16(i), uint16(i+1)))
		}
	}
	// 48 appends at SnapshotEvery=8: the log holds its checkpoint (one
	// record plus an admit per pending request) and fewer than 8 records
	// after it.
	if st := mustRead(t, dir); st.seq > uint64(1+len(st.Pending)+7) {
		t.Errorf("log not compacted: %d records for %d pending requests", st.seq, len(st.Pending))
	}
	j.Kill()

	j2, got := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if !reflect.DeepEqual(got.Pending, want) {
		t.Errorf("pending mismatch after compaction:\n got  %+v\n want %+v", got.Pending, want)
	}
	if !reflect.DeepEqual(got.Served.Entries(), wantServed) {
		t.Errorf("served mismatch after compaction:\n got  %+v\n want %+v", got.Served.Entries(), wantServed)
	}
	if got.Cycles != 8 || got.NextID != 40 {
		t.Errorf("counters: got cycles=%d nextID=%d want cycles=8 nextID=40", got.Cycles, got.NextID)
	}
}

// TestGenerationBumps opens the same directory three times.
func TestGenerationBumps(t *testing.T) {
	dir := t.TempDir()
	for want := uint32(1); want <= 3; want++ {
		j, st := mustOpen(t, Options{Dir: dir})
		if st.Generation != want {
			t.Fatalf("open %d: generation %d", want, st.Generation)
		}
		j.Close()
	}
}

// TestCrashAfterTornWrite arms a byte budget so an append tears mid-frame;
// the journal must die, and recovery must see only the durable prefix.
func TestCrashAfterTornWrite(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if err := j.Admit(req(1, 0, "/a", 2)); err != nil {
		t.Fatal(err)
	}
	j.CrashAfter(5) // next frame is ~30 bytes; 5 land, then death
	if err := j.Admit(req(2, 0, "/b", 4)); err == nil {
		t.Fatal("append past crash point succeeded")
	}
	if err := j.Admit(req(3, 0, "/c", 6)); err == nil {
		t.Fatal("append on dead journal succeeded")
	}

	j2, st := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if !st.Truncated {
		t.Error("torn write not reported")
	}
	if want := []int64{1}; !reflect.DeepEqual(pendingIDs(st), want) {
		t.Errorf("pending IDs %v, want %v", pendingIDs(st), want)
	}
}

// TestCrashBeforeCheckpointRename simulates a crash after a checkpoint's
// temporary file is written, whole or torn, but before the rename: recovery
// must read the old log and ignore the temporary file.
func TestCrashBeforeCheckpointRename(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if err := j.Admit(req(1, 0, "/a", 2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(0, []Delivery{{ID: 1, Docs: []uint16{2}}}); err != nil {
		t.Fatal(err)
	}
	// Save the log, checkpoint, then put the old log back beside the new
	// one as the temporary file — as if the machine died before the rename.
	walPath := filepath.Join(dir, walName)
	old, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	j.Kill()
	temp, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for name, temp := range map[string][]byte{"whole": temp, "torn": temp[:len(temp)/2]} {
		work := t.TempDir()
		if err := os.WriteFile(filepath.Join(work, walName), old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(work, walName+".tmp"), temp, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got := mustOpen(t, Options{Dir: work})
		if want := []Request{req(1, 0, "/a", 3)}; got.Truncated || got.Cycles != 1 || !reflect.DeepEqual(got.Pending, want) {
			t.Errorf("%s temporary file: recovered pending %+v, cycles %d (truncated %v), want %+v, 1",
				name, got.Pending, got.Cycles, got.Truncated, want)
		}
		j2.Close()
		if _, err := os.Stat(filepath.Join(work, walName+".tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s temporary file outlived recovery's checkpoint (%v)", name, err)
		}
	}
}

// TestAppendAfterCompactionRecovered appends after a checkpoint renamed a new
// log into place: the append must land in the renamed file.
func TestAppendAfterCompactionRecovered(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if err := j.Admit(req(1, 0, "/a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(2, 0, "/b", 4)); err != nil {
		t.Fatal(err)
	}
	j.Kill()
	j2, st := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if want := []int64{1, 2}; st.Truncated || !reflect.DeepEqual(pendingIDs(st), want) {
		t.Errorf("pending IDs %v (truncated %v), want %v", pendingIDs(st), st.Truncated, want)
	}
}

// TestServedHorizonBounded retires more requests than the horizon holds,
// across several compactions.
func TestServedHorizonBounded(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: 64})
	const n = DefaultServedHorizon + 6
	for i := int64(1); i <= n; i++ {
		if err := j.Admit(req(i, 0, "/q", 1)); err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(i-1, []Delivery{{ID: i, Docs: []uint16{1}, Retired: true}}); err != nil {
			t.Fatal(err)
		}
	}
	st := mustRead(t, dir)
	entries := st.Served.Entries()
	if len(entries) != DefaultServedHorizon {
		t.Fatalf("served memory holds %d, want %d", len(entries), DefaultServedHorizon)
	}
	for k, e := range entries {
		if want := (ServedEntry{ID: int64(k) + 7, Cycle: int64(k) + 6}); e != want {
			t.Fatalf("served entry %d is %+v, want %+v (oldest first)", k, e, want)
		}
	}
	if cycle, ok := st.Served.Lookup(7); !ok || cycle != 6 {
		t.Errorf("Lookup(7) = %d, %v; want 6, true", cycle, ok)
	}
	if served(st, 6) {
		t.Error("old retiree survived past the horizon")
	}
	j.Close()
}

// TestDocRemoveShrinksPending retires a document and checks pending sets
// shrink, with fully-satisfied requests moving to served.
func TestDocRemoveShrinksPending(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	if err := j.Admit(req(1, 0, "/a", 7)); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(2, 0, "/b", 7, 9)); err != nil {
		t.Fatal(err)
	}
	if err := j.DocRemoved(7, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	j.Kill()

	j2, st := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if want := []int64{2}; !reflect.DeepEqual(pendingIDs(st), want) {
		t.Errorf("pending IDs %v, want %v", pendingIDs(st), want)
	}
	if !reflect.DeepEqual(st.Pending[0].Remaining, []uint16{9}) {
		t.Errorf("remaining %v, want [9]", st.Pending[0].Remaining)
	}
	if !served(st, 1) {
		t.Error("request satisfied by doc removal not in served memory")
	}
	if st.Fingerprint != 0xBEEF {
		t.Errorf("fingerprint %#x, want 0xBEEF", st.Fingerprint)
	}
}

// TestFingerprintIncremental checks the XOR fingerprint is order-independent
// and reversible.
func TestFingerprintIncremental(t *testing.T) {
	docs := map[uint16]int{1: 100, 2: 250, 3: 999}
	full := Fingerprint(docs)
	var inc uint64
	for _, id := range []uint16{3, 1, 2} {
		inc ^= DocHash(id, docs[id])
	}
	if inc != full {
		t.Errorf("incremental %#x != full %#x", inc, full)
	}
	inc ^= DocHash(2, 250)
	delete(docs, 2)
	if inc != Fingerprint(docs) {
		t.Errorf("after removal: incremental %#x != full %#x", inc, Fingerprint(docs))
	}
}

// TestOldFormatRefused: a directory an older build wrote holds its
// state.snap, with that build's log or, after a crash in its first Open,
// without one; Open must refuse it rather than recover it as empty.
func TestOldFormatRefused(t *testing.T) {
	for _, withLog := range []bool{true, false} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "state.snap"), []byte("XBJSNP01"), 0o644); err != nil {
			t.Fatal(err)
		}
		if withLog {
			if err := os.WriteFile(filepath.Join(dir, walName), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if j, st, err := Open(Options{Dir: dir}); err == nil {
			j.Kill()
			t.Errorf("a directory holding state.snap (log %v) recovered as %+v", withLog, st)
		}
	}
}

// TestCloseThenAppendFails verifies ErrClosed.
func TestCloseThenAppendFails(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(1, 0, "/a")); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// logSize is the length of dir's log.
func logSize(t *testing.T, dir string) int {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	return int(fi.Size())
}

// TestRecordFraming flips every byte of a log in turn: a flip inside the
// checkpoint makes recovery fail, and a flip in the record after it drops
// that record as a corrupt tail.
func TestRecordFraming(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if err := j.Admit(req(1, 0, "/a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}
	checkpoint := logSize(t, dir)
	if err := j.Admit(req(2, 0, "/b", 4)); err != nil {
		t.Fatal(err)
	}
	j.Kill()
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0x01
		if err := os.WriteFile(filepath.Join(work, walName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadState(work)
		switch {
		case i < checkpoint && err == nil:
			t.Errorf("corruption at checkpoint byte %d recovered pending %v", i, pendingIDs(st))
		case i >= checkpoint && (err != nil || !st.Truncated || !reflect.DeepEqual(pendingIDs(st), []int64{1})):
			t.Errorf("corruption at record byte %d: %v", i, err)
		}
	}
}

// TestRecoveryRefusesOutOfOrderIDs: the ledger serves the pending set in ID
// order, so recovery must not hand it anything else. A checkpoint whose
// pending IDs do not increase, or exceed NextID, is refused; a log admission
// at or below an earlier ID is a corrupt tail.
func TestRecoveryRefusesOutOfOrderIDs(t *testing.T) {
	for name, ids := range map[string][]int64{"descending": {3, 1}, "duplicate": {2, 2}, "above NextID": {1, 4}} {
		dir := t.TempDir()
		st := &State{Epoch: 1, Generation: 1, NextID: 3}
		for _, id := range ids {
			st.Pending = append(st.Pending, req(id, 0, "/a", 2))
		}
		data, _, err := encodeCheckpoint(st)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if j, st, err := Open(Options{Dir: dir}); err == nil {
			j.Kill()
			t.Errorf("%s: checkpoint with pending IDs %v recovered as %v", name, ids, pendingIDs(st))
		}
	}

	// Admissions 2 then 1: Admit refuses the second, so it is framed by
	// hand.
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if err := j.Admit(req(2, 0, "/a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(1, 0, "/a", 2)); err == nil {
		t.Error("the journal wrote admission 1 after admission 2")
	}
	j.Kill()
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	wal, err = appendRecordFrame(wal, recAdmit, mustRead(t, dir).seq+1, appendAdmit(nil, req(1, 0, "/a", 2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, st := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if !st.Truncated || !reflect.DeepEqual(pendingIDs(st), []int64{2}) {
		t.Errorf("log admitting 2 then 1 recovered pending %v (truncated %v), want [2] truncated", pendingIDs(st), st.Truncated)
	}
}

// TestFailedAppendClosesLog forces a write error: the journal dies and closes
// its log, so nothing is left open for Close to skip.
func TestFailedAppendClosesLog(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	ro, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	j.f.Close()
	j.f = ro // every write fails
	if err := j.Admit(req(1, 0, "/a", 2)); err == nil {
		t.Fatal("append to a read-only log succeeded")
	}
	if err := j.Admit(req(2, 0, "/b", 2)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after a failed write: %v, want ErrClosed", err)
	}
	j.Close()
	if err := ro.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("the failed journal left its log open (Close: %v)", err)
	}
}

// TestCompactionRefusesUnreadableLog corrupts a live journal's log: a
// compaction cannot read it back to the last record written, so it must
// fail and kill the journal, leave the log as it is, and let Open recover
// the intact prefix.
func TestCompactionRefusesUnreadableLog(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	walPath := filepath.Join(dir, walName)
	if err := j.Admit(req(1, 0, "/a", 2)); err != nil {
		t.Fatal(err)
	}
	prefix, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(2); id <= 3; id++ {
		if err := j.Admit(req(id, 0, "/b", 4)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(prefix)+wire.FrameHeaderLen+3] ^= 0xFF // inside the second record's body
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(); err == nil {
		t.Fatal("compaction over a corrupt log succeeded")
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("failed compaction changed the log (%d bytes, want %d; %v)", len(got), len(data), err)
	}
	if err := j.Admit(req(4, 0, "/c", 6)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after a failed compaction: %v, want ErrClosed", err)
	}
	j2, st := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if !st.Truncated || !reflect.DeepEqual(pendingIDs(st), []int64{1}) {
		t.Errorf("recovered pending %v (truncated %v), want [1] truncated", pendingIDs(st), st.Truncated)
	}
}

// TestFailedCheckpointWritesNoIDTwice makes an automatic compaction fail
// after its append reached the log: the journal must die, so a caller that
// retries the refused admission under the same ID writes nothing, and the
// log still recovers every record it holds.
func TestFailedCheckpointWritesNoIDTwice(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir, SnapshotEvery: 2})
	// The checkpoint cannot create its temporary file.
	if err := os.Mkdir(filepath.Join(dir, walName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(1, 0, "/a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(2, 0, "/b", 4)); err == nil {
		t.Fatal("admission whose checkpoint failed succeeded")
	}
	walPath := filepath.Join(dir, walName)
	wal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Admit(req(2, 0, "/b", 4)); err == nil {
		t.Error("retried admission succeeded after a failed checkpoint")
	}
	if err := j.Admit(req(3, 0, "/c", 6)); !errors.Is(err, ErrClosed) {
		t.Errorf("append after a failed checkpoint: %v, want ErrClosed", err)
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, wal) {
		t.Fatalf("the log changed after the failed checkpoint (%d bytes, want %d; %v)", len(got), len(wal), err)
	}
	j.Close()
	if err := os.Remove(filepath.Join(dir, walName+".tmp")); err != nil {
		t.Fatal(err)
	}
	j2, st := mustOpen(t, Options{Dir: dir})
	defer j2.Close()
	if want := []Request{req(1, 0, "/a", 2), req(2, 0, "/b", 4)}; st.Truncated || !reflect.DeepEqual(st.Pending, want) {
		t.Errorf("recovered pending %+v (truncated %v), want %+v", st.Pending, st.Truncated, want)
	}
}
