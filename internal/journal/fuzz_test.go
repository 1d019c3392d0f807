package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalRecover feeds arbitrary bytes as the log of a state directory.
// Recovery must never panic: a corrupt checkpoint is rejected and a corrupt
// record after it truncated, and the journal that comes back must accept
// appends and survive a second recovery.
func FuzzJournalRecover(f *testing.F) {
	// Seed with a well-formed log — a checkpoint holding a pending request,
	// then records after it — and torn or corrupt variants of it.
	dir := f.TempDir()
	j, _, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	j.Admit(Request{ID: 1, Arrival: 0, Query: "/a/b", Remaining: []uint16{2, 5}})
	j.Snapshot()
	checkpoint, _ := os.ReadFile(filepath.Join(dir, walName))
	j.Admit(Request{ID: 2, Arrival: 0, Query: "//c", Remaining: []uint16{5}})
	j.Commit(0, []Delivery{{ID: 1, Docs: []uint16{2}}, {ID: 2, Docs: []uint16{5}, Retired: true}})
	j.DocAdded(0x1234)
	j.Kill()
	wal, _ := os.ReadFile(filepath.Join(dir, walName))
	f.Add(wal)
	f.Add(checkpoint)
	f.Add(wal[:len(wal)/2])
	f.Add(wal[:len(wal)-1])
	f.Add(checkpoint[:len(checkpoint)/2])
	f.Add(logMagic)
	f.Add([]byte{})
	for _, at := range []int{len(checkpoint) / 2, (len(checkpoint) + len(wal)) / 2} {
		mut := append([]byte(nil), wal...)
		mut[at] ^= 0xFF
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, walData []byte) {
		dir := t.TempDir()
		if len(walData) > 0 {
			if err := os.WriteFile(filepath.Join(dir, walName), walData, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, st, err := Open(Options{Dir: dir})
		if err != nil {
			// A corrupt checkpoint is a hard error (lineage identity is
			// gone); the one thing forbidden is a panic.
			return
		}
		// Whatever was recovered must be internally consistent: pending IDs
		// strictly increasing and within NextID.
		for i, r := range st.Pending {
			if i > 0 && r.ID <= st.Pending[i-1].ID {
				t.Fatalf("pending IDs out of order: %v", pendingIDs(st))
			}
			if r.ID > st.NextID {
				t.Fatalf("pending ID %d above NextID %d", r.ID, st.NextID)
			}
		}
		// The recovered journal must accept appends and survive a second
		// recovery with the appended record intact.
		if err := j.Admit(Request{ID: st.NextID + 1, Arrival: st.Cycles, Query: "/z", Remaining: []uint16{1}}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		j.Kill()
		j2, st2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if ids := pendingIDs(st2); len(ids) == 0 || ids[len(ids)-1] != st.NextID+1 {
			t.Fatalf("record appended after recovery lost (pending %v)", ids)
		}
		j2.Close()
	})
}
