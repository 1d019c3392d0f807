package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/journal"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// TestLedgerMatchesJournal drives a journaled ledger through seeded random
// sequences of admissions, cycles, document removals and kill-and-reopen
// restarts — no sockets, no clock — and checks after every step that the
// ledger's pending set and served memory are what a recovery at that instant
// rebuilds from the state directory (journal.ReadState), with compactions
// every 16 records inside the walk; a restart must recover exactly the
// pending set the killed ledger held. It also checks that the cycle Admit
// promises is the one that first covers the request.
func TestLedgerMatchesJournal(t *testing.T) {
	c, queries := fixture(t, 30, 20)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { ledgerWalk(t, c, queries, seed) })
	}
}

func ledgerWalk(t *testing.T, c *xmldoc.Collection, queries []xpath.Path, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	live := slices.Clone(c.Docs())
	var (
		jn *journal.Journal
		l  *Ledger
	)
	open := func() {
		var st *journal.State
		var err error
		if jn, st, err = journal.Open(journal.Options{Dir: dir, SnapshotEvery: 16}); err != nil {
			t.Fatal(err)
		}
		coll, err := xmldoc.NewCollection(live)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(Config{Collection: coll, Mode: broadcast.TwoTierMode, CycleCapacity: 2 * c.TotalSize() / c.Len()})
		if err != nil {
			t.Fatal(err)
		}
		if l, err = NewLedger(eng, jn, st); err != nil {
			t.Fatal(err)
		}
	}
	open()
	defer func() { jn.Kill() }()

	covered := map[int64]int64{}
	for step := 0; step < 400; step++ {
		op := rng.Intn(20)
		switch {
		case op < 8:
			q := queries[rng.Intn(len(queries))]
			cycle, id, err := l.Admit(q, 0)
			if err != nil {
				if strings.Contains(err.Error(), "empty result set") {
					break // a removal emptied its answer
				}
				t.Fatalf("step %d: Admit: %v", step, err)
			}
			if cycle != l.Cycles() {
				t.Fatalf("step %d: request %d covered from cycle %d, the next cycle is %d", step, id, cycle, l.Cycles())
			}
			covered[id] = cycle
		case op < 16:
			_, _, err := l.Air(func(cy *Cycle, enc *Encoded) error {
				l.eng.Recycle(enc)
				for _, p := range l.Pending() { // the snapshot: nothing changed since
					if want, ok := covered[p.ID]; ok && want != cy.Number {
						t.Fatalf("step %d: request %d first snapshotted by cycle %d, promised cycle %d", step, p.ID, cy.Number, want)
					}
					delete(covered, p.ID)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("step %d: Air: %v", step, err)
			}
		case op < 19:
			if len(live) <= 5 {
				break
			}
			i := rng.Intn(len(live))
			if err := l.RemoveDocument(live[i].ID); err != nil {
				t.Fatalf("step %d: RemoveDocument(%d): %v", step, live[i].ID, err)
			}
			live = slices.Delete(live, i, i+1)
			pending := l.Pending()
			for id := range covered {
				if pendingIndex(pending, id) < 0 {
					delete(covered, id) // drained by the removal
				}
			}
		default:
			before := l.Pending()
			jn.Kill()
			open()
			clear(covered)
			if !samePending(l.Pending(), before) {
				t.Fatalf("step %d: recovered %v, the killed ledger held %v", step, l.Pending(), before)
			}
		}
		st, err := journal.ReadState(dir)
		if err != nil {
			t.Fatalf("step %d: ReadState: %v", step, err)
		}
		if got, want := l.Pending(), st.Pending; !matchesJournal(got, want) {
			t.Fatalf("step %d (op %d): ledger pending %v, journal %v", step, op, got, want)
		}
		if got, want := l.served.Entries(), st.Served.Entries(); !slices.Equal(got, want) {
			t.Fatalf("step %d (op %d): ledger served %v, journal %v", step, op, got, want)
		}
	}
}

// TestLedgerServedHorizon retires more requests than the served horizon holds:
// the ledger must remember the retirements replay remembers, in the same
// order, forget the oldest and still answer for the newest.
func TestLedgerServedHorizon(t *testing.T) {
	c, queries := fixture(t, 30, 20)
	dir := t.TempDir()
	jn, st, err := journal.Open(journal.Options{Dir: dir, SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Kill()
	eng, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLedger(eng, jn, st)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for len(ids) < journal.DefaultServedHorizon+40 {
		for _, q := range queries {
			_, id, err := l.Admit(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for l.Len() > 0 {
			if _, _, err := l.Air(func(_ *Cycle, enc *Encoded) error { l.eng.Recycle(enc); return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st, err = journal.ReadState(dir); err != nil {
		t.Fatal(err)
	}
	if got, want := l.served.Entries(), st.Served.Entries(); len(got) != journal.DefaultServedHorizon || !slices.Equal(got, want) {
		t.Fatalf("ledger serves %d retirements, journal %d; equal: %v", len(got), len(want), slices.Equal(got, want))
	}
	if _, served, _ := l.Lookup(ids[0]); served {
		t.Errorf("request %d served past the horizon", ids[0])
	}
	if _, served, _ := l.Lookup(ids[len(ids)-1]); !served {
		t.Errorf("newest request %d not served", ids[len(ids)-1])
	}
}

// pendingIndex locates request id in ps, or -1.
func pendingIndex(ps []Pending, id int64) int {
	return slices.IndexFunc(ps, func(p Pending) bool { return p.ID == id })
}

// samePending compares two pending sets request by request.
func samePending(a, b []Pending) bool {
	return slices.EqualFunc(a, b, func(x, y Pending) bool {
		return x.ID == y.ID && x.Arrival == y.Arrival && x.Query.String() == y.Query.String() && slices.Equal(x.Remaining, y.Remaining)
	})
}

// matchesJournal reports whether the journal's pending set is the ledger's.
func matchesJournal(ps []Pending, js []journal.Request) bool {
	return slices.EqualFunc(ps, js, func(p Pending, r journal.Request) bool {
		return p.ID == r.ID && p.Arrival == r.Arrival && p.Query.String() == r.Query &&
			slices.EqualFunc(p.Remaining, r.Remaining, func(d xmldoc.DocID, u uint16) bool { return uint16(d) == u })
	})
}
