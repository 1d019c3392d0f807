package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/broadcast"
	"repro/internal/journal"
	"repro/internal/schedule"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Ledger is the one owner of the list the paper's server keeps (§3.4): the
// pending requests and the documents each still needs. The networked server,
// the restart driver and the simulator serve requests through it, so
// admission, the cycle snapshot and commit, document removal and recovery are
// written once, each journaling before it changes the pending set (the
// journal is optional; without one the lifecycle is in memory). Like the
// engine below it, a Ledger is not safe for concurrent use: one goroutine
// owns it (the restart driver's script, the server's cycle loop, the
// simulator's loop) and every other goroutine asks that owner. A cycle is one
// call, Air, from snapshot to commit, so nothing the owner runs lands inside
// a cycle: an admission or a document write is covered by the next one.
//
// A pending request is a member of one class (reqClass), which holds the
// documents its members still need; the class is the ledger's only record of
// it, so a commit or a removal works per class and visits a request only to
// journal its delivery or to retire it. The ledger is also the only writer
// of the demand index the engine plans from: each change to the pending set
// is applied to it as it happens, so a cycle plans without a pass over the
// pending set. The index holds one entry per class, weighted by the class's
// members. Which requests form a class is a function of the pending set
// alone (see reqClass), so the classes a recovery rebuilds, and the plans
// made from them, are the ones the killed ledger held.
type Ledger struct {
	eng *Engine
	jn  *journal.Journal // nil: in memory

	// pending maps each pending request's ID to its class, which holds the
	// request's arrival and undelivered documents.
	pending map[int64]*reqClass
	// demand holds one entry per live class (reqClass.entry) with the
	// documents it still needs, as PlanIndexed reads them: the pending set,
	// grouped.
	demand  *schedule.DemandIndex
	classes []*reqClass            // the live classes, in entry-ID order
	fresh   map[string][]*reqClass // by query, the classes admitted this cycle
	// twins is set while one query and admission cycle may have more than
	// one class (a document write, or a Missed split, put them apart), whose
	// sets a later commit or write can make equal; merge clears it.
	twins  bool
	nextID int64 // the last ID assigned
	// cycles is the next cycle number: the last committed cycle + 1, which
	// is also the journal's cycle counter.
	cycles int64
	// served remembers retired requests for Lookup, as replay does
	// (journaled ledgers only).
	served journal.ServedMemory

	airing *Cycle // the cycle air is airing: Missed's and Commitments' only window

	// Per-cycle scratch, reused across cycles. commits holds the classes'
	// commitments asked for during the air, queries one query per class for
	// the prune, planned a cycle's plan by document ID.
	queries    []xpath.Path
	planned    []bool
	commits    []broadcast.Commitment
	recv       []broadcast.Commitment
	delivered  []uint16
	deliveries []journal.Delivery
	retired    []int64
	drained    []int64     // the drained classes' entry keys
	split      []*reqClass // the classes Missed split or split off this cycle
	entries    []schedule.Request
}

// reqClass is the pending requests of one query, admitted in one cycle, that
// lack the same documents (holds is the rule, for admission, merge and
// recovery alike): they share one remaining set, and the commitment a cycle
// makes to it, which the ledger computes and a commit shrinks the set by
// once, and one demand-index entry. A request reported Missed leaves for a
// class of its own; in a journaled ledger, once the cycle commits or fails,
// classes whose sets came out equal merge again (see merge).
type reqClass struct {
	query    xpath.Path
	key      string // the query's canonical string
	docs     []xmldoc.DocID
	admitted int64 // the class's first covering cycle
	// members are the class's pending requests, sorted by ID; a class a merge
	// emptied has none. The first keys the class's demand-index entry, whose
	// weight is their number. Drivers admit in arrival order, so that member
	// sorts first by (Arrival, ID), as FCFS and RxW read the members.
	members  []member
	commit   []broadcast.Commitment // the airing cycle's, once known
	known    bool
	missed   []xmldoc.DocID // what Missed kept back this cycle, sorted
	from, to int            // the class's deliveries in the commit's buffer
	split    bool           // listed in the ledger's split
}

// member is one pending request of a class.
type member struct{ id, arrival int64 }

// id is the ID that keys c's demand-index entry.
func (c *reqClass) id() int64 { return c.members[0].id }

// byID orders members by ID.
func byID(a, b member) int { return cmp.Compare(a.id, b.id) }

// holds reports whether a request of query key, admitted in cycle admitted
// and lacking docs, belongs to class c.
func (c *reqClass) holds(key string, admitted int64, docs []xmldoc.DocID) bool {
	return c.key == key && c.admitted == admitted && slices.Equal(c.docs, docs)
}

// classGroups files classes by query and admission cycle.
type classGroups map[classGroup][]*reqClass

type classGroup struct {
	key      string
	admitted int64
}

// file returns the filed class that holds c's requests, or files c and
// returns it when there is none; files are in the order classes were filed.
func (g classGroups) file(c *reqClass) *reqClass {
	k := classGroup{c.key, c.admitted}
	for _, o := range g[k] {
		if o.holds(c.key, c.admitted, c.docs) {
			return o
		}
	}
	g[k] = append(g[k], c)
	return c
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
	l := &Ledger{eng: eng, jn: jn, pending: make(map[int64]*reqClass), demand: schedule.NewDemandIndex(), fresh: make(map[string][]*reqClass)}
	if jn == nil {
		return l, nil
	}
	l.nextID, l.cycles, l.served = st.NextID, st.Cycles, st.Served
	fp := eng.CollectionFingerprint()
	drifted := st.Fingerprint != 0 && st.Fingerprint != fp
	held := eng.docIDs()
	var shrinks []journal.Delivery
	// The recovered requests group into classes by the rule admission keeps;
	// the current cycle's stay open to its further admissions.
	groups := make(classGroups)
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
		// Arrival is the admission cycle; the journal stores the query as Admit
		// keyed it, and its requests in ID order.
		c := &reqClass{query: q, key: jr.Query, docs: kept, admitted: jr.Arrival}
		if o := groups.file(c); o != c {
			c = o
		} else {
			l.twins = l.twins || len(groups[classGroup{c.key, c.admitted}]) > 1
			l.classes = append(l.classes, c)
			if c.admitted == l.cycles {
				l.fresh[c.key] = append(l.fresh[c.key], c)
			}
		}
		c.members = append(c.members, member{jr.ID, jr.Arrival})
		l.pending[jr.ID] = c
	}
	for _, c := range l.classes {
		if err := l.demand.Apply(c.entry(), eng.docSize); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
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

// Admit registers query q, arrived at time arrival in the driver's clock (the
// scheduler's), and returns the number of the first cycle that covers it — the
// next one to be snapshotted, its admission cycle — and its ID. With max > 0 a
// pending set already at max refuses it with a wrapped ErrOverload, before any
// resolution work; a query with an empty answer is refused too, and so is an
// answer not sorted ascending without duplicates, with an error naming the
// request. With a journal the admission is durable before Admit returns, so an
// ack sent after it never outruns the journal, and at most
// journal.MaxDeliveries requests are pending, as max were that. A journaled
// ledger must be cycle-clocked (arrival is Cycles()): recovery reads a
// request's admission cycle back from its arrival.
func (l *Ledger) Admit(q xpath.Path, max int, arrival int64) (cycle, id int64, err error) {
	if max > 0 && len(l.pending) >= max {
		return 0, 0, fmt.Errorf("engine: pending set at MaxPending %d: %w", max, ErrOverload)
	}
	if l.jn != nil && len(l.pending) >= journal.MaxDeliveries {
		return 0, 0, fmt.Errorf("engine: pending set at the journal's %d: %w", journal.MaxDeliveries, ErrOverload)
	}
	key := q.String()
	docs := l.eng.resolve(q, key)
	if len(docs) == 0 {
		return 0, 0, errors.New("query has an empty result set")
	}
	id = l.nextID + 1
	if err := (schedule.Request{ID: id, Docs: docs}).Validate(); err != nil {
		return 0, 0, fmt.Errorf("engine: %w", err)
	}
	if l.jn != nil {
		jrem := make([]uint16, len(docs))
		for i, d := range docs {
			jrem[i] = uint16(d)
		}
		if err := l.jn.Admit(journal.Request{ID: id, Arrival: arrival, Query: key, Remaining: jrem}); err != nil {
			return 0, 0, err
		}
	}
	l.nextID = id
	// The answer is shared with the engine's cache; the class owns a copy
	// because it shrinks in place. A repeat admission raises the weight of
	// its class's entry. A document write since the class's first admission
	// may have moved the answer off the class's set: then the request starts
	// a class of its own, the query's second this cycle.
	var c *reqClass
	fresh := l.fresh[key]
	for _, o := range fresh {
		if o.holds(key, l.cycles, docs) {
			c = o
			break
		}
	}
	if c == nil {
		c = &reqClass{query: q, key: key, docs: slices.Clone(docs), admitted: l.cycles}
		l.twins = l.twins || len(fresh) > 0
		l.fresh[key] = append(fresh, c)
		l.classes = append(l.classes, c) // the highest ID yet: entry-ID order holds
	}
	c.members = append(c.members, member{id, arrival}) // the highest ID yet
	l.pending[id] = c
	_ = l.demand.Apply(c.entry(), l.eng.docSize) // validated above
	return l.cycles, id, nil
}

// entry is c's demand-index entry.
func (c *reqClass) entry() schedule.Request {
	return schedule.Request{ID: c.id(), Arrival: c.members[0].arrival, Docs: c.docs, Weight: len(c.members)}
}

// Air runs one cycle over the pending set: the engine plans the next cycle —
// numbered Cycles(), starting at start in the driver's clock, which is also
// the scheduler's "now" — from the ledger's demand index, prunes to one query
// per class, and lays out and encodes it; Air hands it to air and commits it
// once air returns. Every pending request loses what the cycle committed to it
// (Commitments) but for what air reported Missed. The commit is journaled
// first. A cycle that fails to assemble, air or commit leaves the pending set
// and the cycle number as they were, so the cycle re-airs. While nothing is
// pending Air does nothing and returns a nil cycle. retired lists the
// requests the cycle drained, in ID order, and is valid until the next commit.
func (l *Ledger) Air(start int64, air func(*Cycle, *Encoded) error) (cy *Cycle, retired []int64, err error) {
	if len(l.pending) == 0 {
		return nil, nil, nil
	}
	num := l.cycles
	queries := l.queries[:0]
	for _, c := range l.classes {
		queries = append(queries, c.query)
	}
	l.queries = queries
	if cy, err = l.eng.assembleCycle(num, start, l.demand, queries); err != nil {
		return nil, nil, err
	}
	enc, err := l.eng.EncodeCycle(cy)
	if err != nil {
		return nil, nil, err
	}
	l.commits = l.commits[:0]
	for _, c := range l.classes {
		c.missed, c.commit, c.known = c.missed[:0], nil, false // what a failed cycle's air reported, or the last cycle's
	}
	l.airing = cy
	err = air(cy, enc)
	l.airing = nil
	if err != nil {
		// The splits Missed made reach the index, and fold back where merge
		// merges: the sets are as they were.
		l.enter()
		l.merge()
		return nil, nil, err
	}
	if retired, err = l.commit(num, cy); err != nil {
		l.enter()
		l.merge()
	}
	return cy, retired, err
}

// Commitments is what the cycle being aired commits to pending request id:
// Cycle.Commitments over its remaining set — at K > 1 only what a single
// tuner can receive, and in its admission cycle, its first covering cycle,
// only what airs after the first tier its client is still reading. It is nil
// outside Air's air function and for a request not pending. A class's
// requests share one commitment, computed on the first ask in a cycle; the
// slice is the ledger's: read it, never write it, and only until air returns.
func (l *Ledger) Commitments(id int64) []broadcast.Commitment {
	c := l.pending[id]
	if l.airing == nil || c == nil {
		return nil
	}
	return l.commitment(c)
}

// commitment is what the cycle being aired commits to class c.
func (l *Ledger) commitment(c *reqClass) []broadcast.Commitment {
	if !c.known {
		n := len(l.commits)
		l.commits = l.airing.Commitments(l.commits, c.docs, l.cycles == c.admitted)
		c.commit, c.known = l.commits[n:len(l.commits):len(l.commits)], true
	}
	return c.commit
}

// Missed reports that request id's client did not receive document doc, which
// the cycle being aired commits to it: the document stays in the request's
// set past the commit, and the journaled delivery leaves it out. A request
// of a class of several leaves it for one of its own; the demand index takes
// the split when the cycle ends (enter). It is the
// simulator's ideal uplink — a lost reception re-requested at no cost before
// the cycle ends — which a networked client does not have. Missed may be
// called only from Air's air function, for a document the cycle commits to a
// pending request; any other call is an error.
func (l *Ledger) Missed(id int64, doc xmldoc.DocID) error {
	if l.airing == nil {
		return fmt.Errorf("engine: Missed(%d, %d) outside a cycle's air", id, doc)
	}
	c := l.pending[id]
	if c == nil {
		return fmt.Errorf("engine: Missed(%d, %d): request not pending", id, doc)
	}
	if !slices.ContainsFunc(l.commitment(c), func(cm broadcast.Commitment) bool { return cm.ID == doc }) {
		return fmt.Errorf("engine: Missed(%d, %d): cycle %d does not commit the document to the request", id, doc, l.cycles)
	}
	if len(c.members) > 1 { // the request leaves its class, with its set and commitment
		i, _ := slices.BinarySearchFunc(c.members, member{id: id}, byID)
		solo := &reqClass{query: c.query, key: c.key, docs: slices.Clone(c.docs), admitted: c.admitted,
			members: []member{c.members[i]}, commit: c.commit, known: true}
		c.members = slices.Delete(c.members, i, i+1)
		l.pending[id] = solo
		if i == 0 {
			// The request keyed the class: its entry, and its place among the
			// classes, stay the request's, and the rest of the class is keyed
			// anew by its next member.
			l.classes[l.classAt(id)] = solo
			l.insertClass(c)
		} else {
			l.insertClass(solo)
		}
		if c.admitted == l.cycles { // open to admissions until the cycle commits
			l.fresh[c.key] = append(l.fresh[c.key], solo)
		}
		l.split = append(l.split, solo)
		if !c.split {
			c.split = true
			l.split = append(l.split, c)
		}
		l.twins = true
		c = solo
	}
	c.missed = xmldoc.InsertID(c.missed, doc)
	return nil
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
// then shrinks the pending set by them, retires the requests they drain,
// brings the demand index to the new pending set and advances the cycle
// number past num. The deliveries are computed, and the sets shrunk, once per
// class: from the commitment the air asked for, or, for a class no one asked
// for, computed here into scratch.
func (l *Ledger) commit(num int64, cy *Cycle) ([]int64, error) {
	// The journal encodes the deliveries before Commit returns, so their
	// document lists share one buffer reused across cycles.
	delivered := l.delivered[:0]
	for _, c := range l.classes {
		c.from = len(delivered)
		if cy != nil {
			recv := c.commit
			if !c.known {
				l.recv = cy.Commitments(l.recv[:0], c.docs, num == c.admitted)
				recv = l.recv
			}
			for _, cm := range recv {
				if !xmldoc.HasID(c.missed, cm.ID) {
					delivered = append(delivered, uint16(cm.ID))
				}
			}
		}
		c.to = len(delivered)
	}
	l.delivered = delivered
	if l.jn != nil {
		// One delivery per request, in ID order, as replay reads them.
		deliveries := l.deliveries[:0]
		for _, c := range l.classes {
			if c.to == c.from {
				continue
			}
			for _, m := range c.members {
				deliveries = append(deliveries, journal.Delivery{ID: m.id, Docs: delivered[c.from:c.to], Retired: c.to-c.from == len(c.docs)})
			}
		}
		slices.SortFunc(deliveries, func(a, b journal.Delivery) int { return cmp.Compare(a.ID, b.ID) })
		l.deliveries = deliveries
		if err := l.jn.Commit(num, deliveries); err != nil {
			return nil, err
		}
	}
	l.cycles = num + 1
	clear(l.fresh)
	for _, c := range l.classes {
		for _, d := range delivered[c.from:c.to] {
			c.docs = xmldoc.RemoveID(c.docs, xmldoc.DocID(d))
		}
	}
	l.retired = l.drain(l.retired[:0])
	if cy != nil {
		l.settle(cy)
	}
	l.merge()
	l.remember(l.retired, num)
	return l.retired, nil
}

// settle applies a commit of cy to the demand index: every planned document
// leaves every class's entry, the classes that still want a planned document
// — a K > 1 commitment fell short of the plan, or air reported a document
// Missed — get their sets back, and the drained classes leave. The upkeep
// reports as StageScheduleDelta.
func (l *Ledger) settle(cy *Cycle) {
	start := time.Now()
	x := l.demand
	for _, p := range cy.Docs {
		x.DeliverDoc(p.ID)
		if int(p.ID) >= len(l.planned) {
			l.planned = append(l.planned, make([]bool, int(p.ID)+1-len(l.planned))...)
		}
		l.planned[p.ID] = true
	}
	l.enter()
	wants := func(d xmldoc.DocID) bool { return int(d) < len(l.planned) && l.planned[d] }
	reconciled := 0
	for _, c := range l.classes {
		if slices.ContainsFunc(c.docs, wants) {
			// The class's set is sorted and duplicate-free, so Apply accepts it.
			_ = x.Apply(c.entry(), l.eng.docSize)
			reconciled++
		}
	}
	for _, id := range l.drained {
		x.Remove(id)
	}
	for _, p := range cy.Docs {
		l.planned[p.ID] = false
	}
	l.eng.probe.StageDone(StageScheduleDelta, time.Since(start), reconciled+len(l.drained), x.TakeEdits())
}

// enter hands the demand index the classes Missed split this cycle: the
// new weights of those split, and the entries of those split off or
// re-keyed, added at once (ApplyAll), each with its set as it stands. A class
// a commit drained is left out: settle removes its key.
func (l *Ledger) enter() {
	entries := l.entries[:0]
	for _, c := range l.split {
		if c.split = false; len(c.docs) > 0 {
			entries = append(entries, c.entry())
		}
	}
	_ = l.demand.ApplyAll(entries, l.eng.docSize) // the sets are sorted and duplicate-free
	clear(l.split)
	l.split = l.split[:0]
	clear(entries)
	l.entries = entries[:0]
}

// RemoveDocument retires document id from the live collection: every pending
// request loses it, requests it drains retire as served at the journal's next
// cycle, and the removal is journaled, whose replay does the same.
func (l *Ledger) RemoveDocument(id xmldoc.DocID) error {
	if err := l.eng.RemoveDocument(id); err != nil {
		return err
	}
	for _, c := range l.classes {
		c.docs = xmldoc.RemoveID(c.docs, id)
	}
	l.demand.DeliverDoc(id)
	retired := l.drain(nil)
	for _, key := range l.drained {
		l.demand.Remove(key)
	}
	l.merge()
	l.remember(retired, l.cycles)
	if l.jn != nil {
		return l.jn.DocRemoved(uint16(id), l.eng.CollectionFingerprint())
	}
	return nil
}

// drain drops the classes with nothing left to deliver, keeping the others in
// order, and their members from the pending set; it appends the dropped
// requests' IDs to retired in ID order and lists the dropped classes' entry
// keys in l.drained.
func (l *Ledger) drain(retired []int64) []int64 {
	l.drained = l.drained[:0]
	n := len(retired)
	l.classes = slices.DeleteFunc(l.classes, func(c *reqClass) bool {
		if len(c.docs) > 0 {
			return false
		}
		l.drained = append(l.drained, c.id())
		for _, m := range c.members {
			delete(l.pending, m.id)
			retired = append(retired, m.id)
		}
		return true
	})
	slices.Sort(retired[n:]) // the classes' members interleave
	return retired
}

// merge folds together the classes of one query and admission cycle whose
// sets a commit, a document write or a failed cycle left equal, into the
// lowest-ID one, so the classes are again those holds draws over the pending
// set, as recovery draws them. It does nothing unless twins is set, and
// leaves twins set only while such classes remain apart. An in-memory
// ledger, which nothing recovers, leaves them apart: in a lossy simulation
// the requests Missed split off would merge a cycle later and split again at
// their next miss, each time moving an entry on ≈ 90 requester lists.
func (l *Ledger) merge() {
	if !l.twins || l.jn == nil {
		return
	}
	l.twins = false
	groups, merged := make(classGroups), false
	l.classes = slices.DeleteFunc(l.classes, func(c *reqClass) bool {
		o := groups.file(c)
		if o == c {
			l.twins = l.twins || len(groups[classGroup{c.key, c.admitted}]) > 1
			return false
		}
		l.demand.Remove(c.id()) // o, filed first, keeps its key
		for _, m := range c.members {
			l.pending[m.id] = o
		}
		o.members = append(o.members, c.members...)
		slices.SortFunc(o.members, byID)
		c.members, merged = nil, true
		_ = l.demand.Apply(o.entry(), l.eng.docSize) // o's set is sorted and duplicate-free
		return true
	})
	if !merged {
		return
	}
	for key, cs := range l.fresh {
		l.fresh[key] = slices.DeleteFunc(cs, func(c *reqClass) bool { return len(c.members) == 0 })
	}
}

// classAt returns the position of the class keyed id in l.classes.
func (l *Ledger) classAt(id int64) int {
	i, _ := slices.BinarySearchFunc(l.classes, id, func(c *reqClass, id int64) int { return cmp.Compare(c.id(), id) })
	return i
}

// insertClass puts c among the classes at its entry ID's place.
func (l *Ledger) insertClass(c *reqClass) {
	l.classes = slices.Insert(l.classes, l.classAt(c.id()), c)
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
	if l.pending[id] != nil {
		return true, false, l.cycles
	}
	cycle, served = l.served.Lookup(id)
	return false, served, cycle
}

// Class reports the ID that keys pending request id's class: that of the
// class's lowest-ID member, which every cycle commits what it commits to id —
// id itself when the request is its class's first — or 0 for a request not
// pending.
func (l *Ledger) Class(id int64) int64 {
	if c := l.pending[id]; c != nil {
		return c.id()
	}
	return 0
}

// Delivered reports how many documents the last commit delivered, counting a
// document once for the requests of one class: zero when the cycle gave no
// request anything.
func (l *Ledger) Delivered() int { return len(l.delivered) }

// Len reports the number of pending requests.
func (l *Ledger) Len() int { return len(l.pending) }

// Cycles reports how many cycles have been committed: the next cycle's
// number.
func (l *Ledger) Cycles() int64 { return l.cycles }

// Pending copies the pending set in admission order, which is ID order; every
// Remaining is the caller's own.
func (l *Ledger) Pending() []Pending {
	out := make([]Pending, 0, len(l.pending))
	for _, c := range l.classes {
		for _, m := range c.members {
			out = append(out, Pending{ID: m.id, Query: c.query, Arrival: m.arrival, Remaining: slices.Clone(c.docs)})
		}
	}
	slices.SortFunc(out, func(a, b Pending) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
