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
// sequences of admissions (some of one query within one cycle, which share a
// class), cycles (with random Missed reports inside their air), document
// removals and kill-and-reopen restarts — no sockets, no clock — and checks
// after every step that the ledger's pending set and served memory are what a
// recovery at that instant rebuilds from the state directory
// (journal.ReadState), with compactions every 16 records inside the walk; a
// restart must recover exactly the pending set the killed ledger held. It
// also checks that the cycle Admit promises is the one that first covers the
// request, that a document reported missed stays pending, and that inside a
// cycle's air Commitments is Cycle.Commitments over each pending request's set
// keyed on its admission cycle — asked before any Missed or not, and again
// after Missed moved requests to classes of their own — and nil outside it.
// The k4 walks air four channels, where the admission cycle's commitment
// differs from a later cycle's.
func TestLedgerMatchesJournal(t *testing.T) {
	c, queries := fixture(t, 30, 20)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { ledgerWalk(t, c, queries, seed, 1) })
		t.Run(fmt.Sprintf("k4_%d", seed), func(t *testing.T) { ledgerWalk(t, c, queries, seed, 4) })
	}
}

func ledgerWalk(t *testing.T, c *xmldoc.Collection, queries []xpath.Path, seed int64, channels int) {
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
		eng, err := New(Config{Collection: coll, Mode: broadcast.TwoTierMode, CycleCapacity: 2 * c.TotalSize() / c.Len(), Channels: channels})
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
			for n := 1 + rng.Intn(3); n > 0; n-- { // the same query, admitted up to three times in one cycle
				cycle, id, err := l.Admit(q, 0, l.Cycles())
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
			}
		case op < 16:
			var missed []Pending // one request and document per entry
			checkCommitments := func(cy *Cycle, when string) {
				for _, p := range l.Pending() {
					// A journaled ledger's arrival is the admission cycle.
					if got, want := l.Commitments(p.ID), cy.Commitments(nil, p.Remaining, cy.Number == p.Arrival); !slices.Equal(got, want) {
						t.Fatalf("step %d, %s: request %d is committed %v, want %v", step, when, p.ID, got, want)
					}
				}
			}
			_, _, err := l.Air(l.Cycles(), func(cy *Cycle, enc *Encoded) error {
				l.eng.Recycle(enc)
				if rng.Intn(2) == 0 {
					checkCommitments(cy, "before Missed")
				}
				for _, p := range l.Pending() { // the snapshot: nothing changed since
					if want, ok := covered[p.ID]; ok && want != cy.Number {
						t.Fatalf("step %d: request %d first snapshotted by cycle %d, promised cycle %d", step, p.ID, cy.Number, want)
					}
					delete(covered, p.ID)
					// A journaled ledger's arrival is the admission cycle.
					commit := cy.Commitments(nil, p.Remaining, cy.Number == p.Arrival)
					if len(commit) == 0 || rng.Intn(3) > 0 {
						continue
					}
					d := commit[rng.Intn(len(commit))].ID
					if err := l.Missed(p.ID, d); err != nil {
						t.Fatalf("step %d: Missed(%d, %d): %v", step, p.ID, d, err)
					}
					missed = append(missed, Pending{ID: p.ID, Remaining: []xmldoc.DocID{d}})
				}
				checkCommitments(cy, "after Missed")
				return nil
			})
			if err != nil {
				t.Fatalf("step %d: Air: %v", step, err)
			}
			for _, m := range missed {
				if !slices.Contains(remaining(l, m.ID), m.Remaining[0]) {
					t.Fatalf("step %d: request %d lost document %d it missed: %v", step, m.ID, m.Remaining[0], remaining(l, m.ID))
				}
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
		for _, p := range l.Pending() {
			if cm := l.Commitments(p.ID); cm != nil {
				t.Fatalf("step %d (op %d): request %d is committed %v outside a cycle's air", step, op, p.ID, cm)
			}
		}
	}
}

// TestLedgerMissedKeepsRequestPending: of two requests of one query admitted
// in one cycle, which share a class, one reports every document the cycle
// commits to it missed. It stays pending with its whole set, the other
// retires, and the missed documents air again in the next cycle.
func TestLedgerMissedKeepsRequestPending(t *testing.T) {
	c, queries := fixture(t, 30, 20)
	eng, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLedger(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := queries[0]
	_, lost, err := l.Admit(q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Admit(q, 0, 0); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(remaining(l, lost))
	var aired []xmldoc.DocID
	cy, retired, err := l.Air(0, func(cy *Cycle, enc *Encoded) error {
		eng.Recycle(enc)
		for _, cm := range l.Commitments(lost) {
			if err := l.Missed(lost, cm.ID); err != nil {
				return err
			}
			aired = append(aired, cm.ID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(aired) != len(want) {
		t.Fatalf("cycle %d committed %v of %v with the whole collection's capacity", cy.Number, aired, want)
	}
	if !slices.Equal(retired, []int64{lost + 1}) {
		t.Fatalf("retired %v, want the other request %d", retired, lost+1)
	}
	if got := remaining(l, lost); !slices.Equal(got, want) {
		t.Fatalf("request %d keeps %v after missing it all, want %v", lost, got, want)
	}
	next, _, err := l.Air(1, func(_ *Cycle, enc *Encoded) error { eng.Recycle(enc); return nil })
	if err != nil {
		t.Fatal(err)
	}
	var again []xmldoc.DocID
	for _, p := range next.Docs {
		again = append(again, p.ID)
	}
	if slices.Sort(again); !slices.Equal(again, want) {
		t.Fatalf("cycle %d aired %v, want the missed %v", next.Number, again, want)
	}
	if l.Len() != 0 {
		t.Fatalf("%d requests pending after the missed documents aired again", l.Len())
	}
}

// TestLedgerMissedRefused: Missed outside a cycle's air, for a document the
// cycle does not commit to the request, or for a request not pending, is an
// error and changes nothing.
func TestLedgerMissedRefused(t *testing.T) {
	c, queries := fixture(t, 30, 20)
	eng, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLedger(eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, id, err := l.Admit(queries[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc := remaining(l, id)[0]
	if err := l.Missed(id, doc); err == nil {
		t.Error("Missed outside a cycle's air accepted")
	}
	var absent xmldoc.DocID
	for _, d := range c.Docs() {
		if !slices.Contains(remaining(l, id), d.ID) {
			absent = d.ID
			break
		}
	}
	_, retired, err := l.Air(0, func(_ *Cycle, enc *Encoded) error {
		eng.Recycle(enc)
		if err := l.Missed(id, absent); err == nil {
			t.Errorf("Missed of document %d, which the request does not want, accepted", absent)
		}
		if err := l.Missed(id+1, doc); err == nil {
			t.Error("Missed of a request never admitted accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(retired, []int64{id}) {
		t.Fatalf("retired %v, want %d: a refused Missed kept a document back", retired, id)
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
			_, id, err := l.Admit(q, 0, l.Cycles())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for l.Len() > 0 {
			if _, _, err := l.Air(l.Cycles(), func(_ *Cycle, enc *Encoded) error { l.eng.Recycle(enc); return nil }); err != nil {
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

// remaining is pending request id's undelivered documents, nil if id is not
// pending.
func remaining(l *Ledger, id int64) []xmldoc.DocID {
	if i, ok := l.find(id); ok {
		return l.pending[i].Remaining
	}
	return nil
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
