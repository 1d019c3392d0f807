package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalRecover feeds arbitrary bytes as the snapshot and log of a
// state directory. Recovery must never panic: any corrupt prefix is either
// rejected (snapshot) or truncated (log), and the journal that comes back
// must accept appends and survive a second recovery.
func FuzzJournalRecover(f *testing.F) {
	// Seed with a well-formed snapshot + log pair, then torn/corrupt
	// variants of each.
	dir := f.TempDir()
	j, _, err := Open(Options{Dir: dir, SnapshotEvery: -1, Epoch: 3})
	if err != nil {
		f.Fatal(err)
	}
	j.Admit(Request{ID: 1, Arrival: 0, Query: "/a/b", Remaining: []uint16{2, 5}})
	j.Commit(0, []Delivery{{ID: 1, Docs: []uint16{2}}})
	j.DocAdded(0x1234)
	j.Kill()
	snap, _ := os.ReadFile(filepath.Join(dir, snapName))
	wal, _ := os.ReadFile(filepath.Join(dir, walName))
	f.Add(snap, wal)
	f.Add(snap, wal[:len(wal)/2])
	f.Add(snap[:len(snap)/2], wal)
	f.Add([]byte{}, wal)
	f.Add(snap, []byte{})
	f.Add([]byte{recSync0, recSync1, 99, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{recSync0, recSync1})
	if len(wal) > 4 {
		mut := append([]byte(nil), wal...)
		mut[len(mut)/2] ^= 0xFF
		f.Add(snap, mut)
	}

	f.Fuzz(func(t *testing.T, snapData, walData []byte) {
		dir := t.TempDir()
		if len(snapData) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapName), snapData, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if len(walData) > 0 {
			if err := os.WriteFile(filepath.Join(dir, walName), walData, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, st, err := Open(Options{Dir: dir})
		if err != nil {
			// A corrupt snapshot is a hard error (lineage identity is
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
