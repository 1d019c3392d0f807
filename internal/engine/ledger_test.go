package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/journal"
	"repro/internal/schedule"
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
// A restart must also recover the killed ledger's classes, and so its plans
// (sameClasses), whatever Missed splits, removals and failed cycles came
// between the admissions; a cycle that fails in its air leaves the pending
// set and the cycle number as they were. After every step the classes must
// hold the pending set exactly (classEntries).
// The k4 walks air four channels, where the admission cycle's commitment
// differs from a later cycle's.
func TestLedgerMatchesJournal(t *testing.T) {
	c, queries := fixture(t, 30, 20)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { ledgerWalk(t, c, queries, seed, 1) })
		t.Run(fmt.Sprintf("k4_%d", seed), func(t *testing.T) { ledgerWalk(t, c, queries, seed, 4) })
	}
}

var errAirFailed = errors.New("air failed")

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
			// One cycle in six fails in its air, after its Missed reports: the
			// pending set and the cycle number stay as they were. (With
			// nothing pending there is no cycle to fail.)
			before, cycles := l.Pending(), l.Cycles()
			fail := rng.Intn(6) == 0 && len(before) > 0
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
				if fail {
					return errAirFailed
				}
				return nil
			})
			if fail {
				if !errors.Is(err, errAirFailed) || l.Cycles() != cycles || !samePending(l.Pending(), before) {
					t.Fatalf("step %d: a failed air returned %v and left cycle %d (was %d), pending %v (was %v)", step, err, l.Cycles(), cycles, l.Pending(), before)
				}
				break
			}
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
			before, killed := l.Pending(), l
			jn.Kill()
			open()
			clear(covered)
			if !samePending(l.Pending(), before) {
				t.Fatalf("step %d: recovered %v, the killed ledger held %v", step, l.Pending(), before)
			}
			sameClasses(t, fmt.Sprintf("step %d", step), killed, l)
		}
		classEntries(t, fmt.Sprintf("step %d (op %d)", step, op), l)
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

// TestLedgerRecoversClasses: within one admission cycle, a document added
// between two admissions of one query puts them in two classes, its removal
// merges them again, and after another removal a third admission still
// joins the class; a restart recovers that one class, open to the cycle's
// next admission.
func TestLedgerRecoversClasses(t *testing.T) {
	c, queries := fixture(t, 30, 20)
	e := newEngine(t, c, c.TotalSize())
	var q xpath.Path
	var answer []xmldoc.DocID
	for _, cand := range queries {
		if answer = e.Resolve(cand); len(answer) >= 3 {
			q = cand
			break
		}
	}
	if len(answer) < 3 {
		t.Fatal("no query answers three documents")
	}
	d, other := answer[0], answer[1]
	var held *xmldoc.Document
	live := slices.DeleteFunc(slices.Clone(c.Docs()), func(doc *xmldoc.Document) bool {
		if doc.ID == d {
			held = doc
		}
		return doc.ID == d
	})
	dir := t.TempDir()
	var jn *journal.Journal
	open := func() *Ledger {
		var st *journal.State
		var err error
		if jn, st, err = journal.Open(journal.Options{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		coll, err := xmldoc.NewCollection(live)
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLedger(newEngine(t, coll, c.TotalSize()), jn, st)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open()
	defer func() { jn.Kill() }()
	admit := func(l *Ledger) {
		t.Helper()
		if _, _, err := l.Admit(q, 0, l.Cycles()); err != nil {
			t.Fatal(err)
		}
	}
	weights := func(l *Ledger) []int {
		var w []int
		for _, c := range l.classes {
			w = append(w, len(c.members))
		}
		return w
	}
	admit(l)
	if err := l.AddDocument(held); err != nil {
		t.Fatal(err)
	}
	live = append(live, held)
	admit(l)
	if got := weights(l); !slices.Equal(got, []int{1, 1}) {
		t.Fatalf("after an added document, class weights %v, want [1 1]", got)
	}
	for _, id := range []xmldoc.DocID{d, other} {
		if err := l.RemoveDocument(id); err != nil {
			t.Fatal(err)
		}
		live = slices.DeleteFunc(live, func(doc *xmldoc.Document) bool { return doc.ID == id })
	}
	admit(l)
	if got := weights(l); !slices.Equal(got, []int{3}) {
		t.Fatalf("after the removals, class weights %v, want [3]", got)
	}
	killed := l
	jn.Kill()
	l = open()
	sameClasses(t, "recovered", killed, l)
	admit(l)
	if got := weights(l); !slices.Equal(got, []int{4}) {
		t.Fatalf("recovered, then admitted again: class weights %v, want [4]", got)
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

// TestLedgerRetiresInIDOrder: two queries admitted alternately form two
// classes whose members interleave (1, 3 and 2, 4). When both drain at once —
// in one cycle, or by one document removal — the retired requests come back,
// and are remembered, in ID order, as replay retires them; a retired request
// is no longer pending to Lookup, Class or Commitments.
func TestLedgerRetiresInIDOrder(t *testing.T) {
	c, queries := fixture(t, 30, 20)
	d := c.IDs()[0]
	for _, removal := range []bool{false, true} {
		for _, journaled := range []bool{false, true} {
			t.Run(fmt.Sprintf("removal=%v/journaled=%v", removal, journaled), func(t *testing.T) {
				e := newEngine(t, c, c.TotalSize())
				qa, qb := queries[0], queries[1]
				setAnswer(e, qa, []xmldoc.DocID{d})
				setAnswer(e, qb, []xmldoc.DocID{d})
				var jn *journal.Journal
				var st *journal.State
				dir := t.TempDir()
				if journaled {
					var err error
					if jn, st, err = journal.Open(journal.Options{Dir: dir}); err != nil {
						t.Fatal(err)
					}
					defer jn.Kill()
				}
				l, err := NewLedger(e, jn, st)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range []xpath.Path{qa, qb, qa, qb} {
					if _, _, err := l.Admit(q, 0, l.Cycles()); err != nil {
						t.Fatal(err)
					}
				}
				if len(l.classes) != 2 || l.Class(3) != 1 || l.Class(4) != 2 {
					t.Fatalf("%d classes, requests 3 and 4 keyed by %d and %d: want two, keyed by 1 and 2", len(l.classes), l.Class(3), l.Class(4))
				}
				want := []int64{1, 2, 3, 4}
				if removal {
					if err := l.RemoveDocument(d); err != nil {
						t.Fatal(err)
					}
				} else {
					_, retired, err := l.Air(0, func(_ *Cycle, enc *Encoded) error { e.Recycle(enc); return nil })
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(retired, want) {
						t.Fatalf("retired %v, want %v", retired, want)
					}
				}
				if journaled {
					rs, err := journal.ReadState(dir)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := l.served.Entries(), rs.Served.Entries(); len(got) != 4 || !slices.Equal(got, want) {
						t.Fatalf("the ledger remembers %v retired, the journal %v", got, want)
					}
				}
				for _, id := range want {
					if pending, served, _ := l.Lookup(id); pending || served != journaled || l.Class(id) != 0 {
						t.Fatalf("retired request %d: Lookup pending %v, served %v; Class %d", id, pending, served, l.Class(id))
					}
				}
				if l.Len() != 0 {
					t.Fatalf("%d requests pending after both classes drained", l.Len())
				}
				// Commitments answers only inside a cycle's air: air one more.
				if !removal {
					if _, _, err := l.Admit(qa, 0, l.Cycles()); err != nil {
						t.Fatal(err)
					}
					if _, _, err := l.Air(1, func(_ *Cycle, enc *Encoded) error {
						e.Recycle(enc)
						for _, id := range want {
							if cm := l.Commitments(id); cm != nil {
								t.Errorf("retired request %d is committed %v", id, cm)
							}
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestLedgerJournaledPendingCap: a journal's commit record holds at most
// journal.MaxDeliveries deliveries, so a journaled ledger refuses an
// admission beyond that many pending requests as overload, and the cycle
// that delivers to all of them commits.
func TestLedgerJournaledPendingCap(t *testing.T) {
	c, queries := fixture(t, 30, 20)
	e := newEngine(t, c, c.TotalSize())
	q := queries[0]
	setAnswer(e, q, c.IDs()[:1])
	jn, st, err := journal.Open(journal.Options{Dir: t.TempDir(), SnapshotEvery: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Kill()
	l, err := NewLedger(e, jn, st)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for i := 0; i < 1<<16; i++ {
		if _, _, err := l.Admit(q, 0, l.Cycles()); errors.Is(err, ErrOverload) {
			refused++
		} else if err != nil {
			t.Fatalf("admission %d: %v", i+1, err)
		}
	}
	pending := l.Len()
	_, retired, err := l.Air(0, func(_ *Cycle, enc *Encoded) error { e.Recycle(enc); return nil })
	if err != nil {
		t.Fatalf("a cycle over %d pending requests: %v", pending, err)
	}
	if refused != 1 || pending != journal.MaxDeliveries || len(retired) != pending {
		t.Fatalf("%d of %d admissions refused, %d pending, %d retired: want one refused and the rest retired", refused, 1<<16, pending, len(retired))
	}
}

// sameClasses fails unless ledger b holds a's classes — each one's key,
// arrival, weight, set, query and admission cycle, in order — and the same
// classes open to admissions in the current cycle, and unless every policy
// plans the same cycle from the two ledgers' demand indexes.
func sameClasses(t *testing.T, when string, a, b *Ledger) {
	t.Helper()
	type class struct {
		entry    schedule.Request
		key      string
		admitted int64
	}
	classes := func(l *Ledger) (cs []class, fresh map[string][]int64) {
		fresh = make(map[string][]int64)
		for _, c := range l.classes {
			e := c.entry()
			e.Docs = slices.Clone(e.Docs)
			cs = append(cs, class{e, c.query.String(), c.admitted})
			if slices.Contains(l.fresh[c.key], c) {
				fresh[c.key] = append(fresh[c.key], c.id())
			}
		}
		return cs, fresh
	}
	ac, af := classes(a)
	bc, bf := classes(b)
	if !reflect.DeepEqual(ac, bc) {
		t.Fatalf("%s: classes %+v, the killed ledger's %+v", when, bc, ac)
	}
	if !reflect.DeepEqual(af, bf) {
		t.Fatalf("%s: classes open to admission %v, the killed ledger's %v", when, bf, af)
	}
	capacity := a.eng.capacity
	for _, n := range schedule.Names() {
		p, err := schedule.New(n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.PlanIndexed(b.demand, capacity, a.Cycles()), p.PlanIndexed(a.demand, capacity, a.Cycles()); !slices.Equal(got, want) {
			t.Fatalf("%s: %s plans %v, from the killed ledger's index %v", when, n, got, want)
		}
	}
}

// remaining is pending request id's undelivered documents, nil if id is not
// pending.
func remaining(l *Ledger, id int64) []xmldoc.DocID {
	if c := l.pending[id]; c != nil {
		return c.docs
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
