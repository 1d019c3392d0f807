package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/broadcast"
	"repro/internal/journal"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Ledger is the one owner of the list the paper's server keeps (§3.4): the
// pending requests and the documents each still needs. The networked server
// and the restart driver both serve requests through it, so admission, the
// cycle snapshot and commit, document removal and recovery are written once,
// each journaling before it changes the pending set (the journal is optional;
// without one the lifecycle is in memory). Like the engine below it, a
// Ledger is not safe for concurrent use: one goroutine owns it (the restart
// driver's script, the server's cycle loop) and every other goroutine asks
// that owner. A cycle is one call, Air, from snapshot to commit, so nothing
// the owner runs lands inside a cycle: an admission or a document write is
// covered by the next one.
type Ledger struct {
	eng *Engine
	jn  *journal.Journal // nil: in memory

	// pending is in admission order, which is ID order. Each Remaining is the
	// request's own sorted, duplicate-free set of undelivered documents: lent
	// to the engine as is while a cycle assembles, shrunk in place otherwise.
	pending []Pending
	nextID  int64 // the last ID assigned
	// cycles is the next cycle number: the last committed cycle + 1, which
	// is also the journal's cycle counter.
	cycles int64
	// served remembers retired requests for Lookup, as replay does
	// (journaled ledgers only).
	served journal.ServedMemory

	// Per-cycle scratch, reused across cycles.
	recv       []broadcast.Commitment
	delivered  []uint16
	deliveries []journal.Delivery
	retired    []int64
}

// NewLedger starts the request lifecycle over eng. With a journal, st is the
// state journal.Open recovered, and the ID counter, cycle number, pending set
// and served memory resume from it (the ledger takes st.Served over). Every
// recovered query is re-parsed, and its remaining set sorted, deduplicated
// and cut to the documents the live collection holds — to the query's
// current answer when the collection's fingerprint drifted while the server
// was down. The cut is journaled (a request it empties is removed, the others
// shrink), so the state the journal recovers to, and every snapshot folded
// from it, agree with the ledger, and the live collection's fingerprint is
// stamped for the next recovery to compare against.
func NewLedger(eng *Engine, jn *journal.Journal, st *journal.State) (*Ledger, error) {
	l := &Ledger{eng: eng, jn: jn}
	if jn == nil {
		return l, nil
	}
	l.nextID, l.cycles, l.served = st.NextID, st.Cycles, st.Served
	fp := eng.CollectionFingerprint()
	drifted := st.Fingerprint != 0 && st.Fingerprint != fp
	held := eng.docIDs()
	var shrinks []journal.Delivery
	for _, jr := range st.Pending {
		// valid is what the request may keep: the live collection, or on drift
		// the query's answer over it; nothing, if the query does not parse.
		q, err := xpath.Parse(jr.Query)
		valid := held
		switch {
		case err != nil:
			valid = nil
		case drifted:
			valid = eng.Resolve(q)
		}
		var kept []xmldoc.DocID
		var dropped []uint16
		for _, d := range jr.Remaining {
			if xmldoc.HasID(valid, xmldoc.DocID(d)) {
				kept = append(kept, xmldoc.DocID(d))
			} else {
				dropped = append(dropped, d)
			}
		}
		// The journal stores what Admit handed it, but it is a file: sort and
		// deduplicate instead of trusting it.
		slices.Sort(kept)
		kept = slices.Compact(kept)
		if len(kept) == 0 {
			if err := jn.Remove(jr.ID); err != nil {
				return nil, err
			}
			continue
		}
		if len(dropped) > 0 {
			shrinks = append(shrinks, journal.Delivery{ID: jr.ID, Docs: dropped})
		}
		l.pending = append(l.pending, Pending{ID: jr.ID, Query: q, Arrival: jr.Arrival, Remaining: kept})
	}
	if len(shrinks) > 0 {
		// A commit of the last committed cycle shrinks remaining sets without
		// advancing the cycle counter; none empties, so nothing retires.
		if err := jn.Commit(l.cycles-1, shrinks); err != nil {
			return nil, err
		}
	}
	if st.Fingerprint != fp {
		return l, jn.DocAdded(fp)
	}
	return l, nil
}

// Admit registers query q and returns the number of the first cycle that
// covers it — the next one to be snapshotted — and its ID. With max > 0 a
// pending set already at max refuses it with a wrapped ErrOverload, before any
// resolution work; a query with an empty answer is refused too. With a journal
// the admission is durable before Admit returns, so an ack sent after it never
// outruns the journal.
func (l *Ledger) Admit(q xpath.Path, max int) (cycle, id int64, err error) {
	if max > 0 && len(l.pending) >= max {
		return 0, 0, fmt.Errorf("engine: pending set at MaxPending %d: %w", max, ErrOverload)
	}
	docs := l.eng.Resolve(q)
	if len(docs) == 0 {
		return 0, 0, errors.New("query has an empty result set")
	}
	id = l.nextID + 1
	if l.jn != nil {
		jrem := make([]uint16, len(docs))
		for i, d := range docs {
			jrem[i] = uint16(d)
		}
		if err := l.jn.Admit(journal.Request{ID: id, Arrival: l.cycles, Query: q.String(), Remaining: jrem}); err != nil {
			return 0, 0, err
		}
	}
	l.nextID = id
	// The answer is shared with the engine's cache; the request owns a copy
	// because it shrinks in place.
	l.pending = append(l.pending, Pending{ID: id, Query: q, Arrival: l.cycles, Remaining: slices.Clone(docs)})
	return l.cycles, id, nil
}

// Air runs one cycle over the pending set, snapshot to commit: it lends the
// set to the engine, assembles and encodes the next cycle — its number is the
// scheduler's clock as well as the cycle's start — hands it to air, and
// commits it once air returns. Every pending request loses what the cycle
// committed to it (Cycle.Commitments: on a multichannel cycle only what a
// single tuner could receive; the request's admission cycle is its first
// covering cycle, where its client is still reading the first tier). The
// commit is journaled first. A cycle that fails to assemble, air or commit
// leaves the pending set and the cycle number as they were, so the cycle
// re-airs. While nothing is pending Air does nothing and returns a nil
// cycle. retired lists the requests the cycle drained, in ID order, and is
// valid until the next commit.
func (l *Ledger) Air(air func(*Cycle, *Encoded) error) (cy *Cycle, retired []int64, err error) {
	if len(l.pending) == 0 {
		return nil, nil, nil
	}
	num := l.cycles
	if cy, err = l.eng.AssembleCycle(num, num, l.pending); err != nil {
		return nil, nil, err
	}
	enc, err := l.eng.EncodeCycle(cy)
	if err != nil {
		return nil, nil, err
	}
	if err := air(cy, enc); err != nil {
		return nil, nil, err
	}
	retired, err = l.commit(num, cy)
	return cy, retired, err
}

// Idle commits an empty cycle: it claims the next cycle number and journals
// no deliveries. A driver that counts cycles while nothing is pending (the
// restart driver keeps its cycle counter aligned with the journal this way)
// commits one instead of calling Air.
func (l *Ledger) Idle() error {
	_, err := l.commit(l.cycles, nil)
	return err
}

// commit journals cycle num's deliveries — none for an idle cycle (nil cy) —
// then shrinks the pending set by them, retires the requests they drain and
// advances the cycle number past num.
func (l *Ledger) commit(num int64, cy *Cycle) ([]int64, error) {
	deliveries, delivered := l.deliveries[:0], l.delivered[:0]
	if cy != nil {
		for _, r := range l.pending {
			l.recv = cy.Commitments(l.recv[:0], r.Remaining, num == r.Arrival)
			if len(l.recv) == 0 {
				continue
			}
			// The journal encodes the deliveries before Commit returns, so
			// their document lists share one buffer reused across cycles.
			from := len(delivered)
			for _, cm := range l.recv {
				delivered = append(delivered, uint16(cm.ID))
			}
			deliveries = append(deliveries, journal.Delivery{ID: r.ID, Docs: delivered[from:], Retired: len(l.recv) == len(r.Remaining)})
		}
	}
	l.deliveries, l.delivered = deliveries, delivered
	if l.jn != nil {
		if err := l.jn.Commit(num, deliveries); err != nil {
			return nil, err
		}
	}
	l.cycles = num + 1
	for i := range l.pending {
		if r := &l.pending[i]; len(deliveries) > 0 && deliveries[0].ID == r.ID {
			for _, d := range deliveries[0].Docs {
				r.Remaining = xmldoc.RemoveID(r.Remaining, xmldoc.DocID(d))
			}
			deliveries = deliveries[1:]
		}
	}
	l.retired = l.drain(l.retired[:0])
	l.remember(l.retired, num)
	return l.retired, nil
}

// RemoveDocument retires document id from the live collection: every pending
// request loses it, requests it drains retire as served at the journal's next
// cycle, and the removal is journaled, whose replay does the same.
func (l *Ledger) RemoveDocument(id xmldoc.DocID) error {
	if err := l.eng.RemoveDocument(id); err != nil {
		return err
	}
	for i := range l.pending {
		l.pending[i].Remaining = xmldoc.RemoveID(l.pending[i].Remaining, id)
	}
	l.remember(l.drain(nil), l.cycles)
	if l.jn != nil {
		return l.jn.DocRemoved(uint16(id), l.eng.CollectionFingerprint())
	}
	return nil
}

// drain drops the requests with nothing left to deliver, keeping the others
// in order, and appends the dropped IDs to retired.
func (l *Ledger) drain(retired []int64) []int64 {
	live := l.pending[:0]
	for _, r := range l.pending {
		if len(r.Remaining) == 0 {
			retired = append(retired, r.ID)
		} else {
			live = append(live, r)
		}
	}
	clear(l.pending[len(live):])
	l.pending = live
	return retired
}

// remember records the requests ids as retired by cycle. An in-memory ledger
// remembers nothing: it has no lineage for a client to resume.
func (l *Ledger) remember(ids []int64, cycle int64) {
	if l.jn == nil {
		return
	}
	for _, id := range ids {
		l.served.Retire(id, cycle)
	}
}

// AddDocument admits d to the live collection, visible to queries and
// schedulable from the next cycle, and journals the grown collection's
// fingerprint so that recovery can detect drift.
func (l *Ledger) AddDocument(d *xmldoc.Document) error {
	if err := l.eng.AddDocument(d); err != nil {
		return err
	}
	if l.jn == nil {
		return nil
	}
	return l.jn.DocAdded(l.eng.CollectionFingerprint())
}

// Lookup reports where request id stands: still pending (cycle is the next
// cycle, which covers every pending request), retired within the served
// horizon (cycle is the one that retired it), or neither — never admitted
// here, or forgotten — and to be resubmitted.
func (l *Ledger) Lookup(id int64) (pending, served bool, cycle int64) {
	if _, pending = slices.BinarySearchFunc(l.pending, id, func(r Pending, id int64) int { return cmp.Compare(r.ID, id) }); pending {
		return true, false, l.cycles
	}
	cycle, served = l.served.Lookup(id)
	return false, served, cycle
}

// Len reports the number of pending requests.
func (l *Ledger) Len() int { return len(l.pending) }

// Cycles reports how many cycles have been committed: the next cycle's
// number.
func (l *Ledger) Cycles() int64 { return l.cycles }

// Pending copies the pending set in admission order; every Remaining is the
// caller's own.
func (l *Ledger) Pending() []Pending {
	out := slices.Clone(l.pending)
	for i := range out {
		out[i].Remaining = slices.Clone(out[i].Remaining)
	}
	return out
}
