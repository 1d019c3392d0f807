package schedule

import (
	"sort"

	"repro/internal/xmldoc"
)

// PlanIndexed implements Scheduler.
func (FCFS) PlanIndexed(x *DemandIndex, capacity int, _ int64) []xmldoc.DocID {
	return x.planFCFS(capacity)
}

// PlanIndexed implements Scheduler.
func (MRF) PlanIndexed(x *DemandIndex, capacity int, _ int64) []xmldoc.DocID {
	return x.planByCount(capacity, func(ds *demandDoc) int64 {
		return int64(len(ds.reqs))
	})
}

// PlanIndexed implements Scheduler. The oldest wait per document
// is read off the maintained min-arrival extremum instead of a per-cycle
// scan.
func (RxW) PlanIndexed(x *DemandIndex, capacity int, now int64) []xmldoc.DocID {
	return x.planByCount(capacity, func(ds *demandDoc) int64 {
		oldest := now - ds.minArrival
		if oldest < 1 {
			oldest = 1 // fresh requests still compete on R
		}
		return int64(len(ds.reqs)) * oldest
	})
}

// PlanIndexed implements Scheduler.
func (LeeLo) PlanIndexed(x *DemandIndex, capacity int, _ int64) []xmldoc.DocID {
	return x.planLeeLo(capacity)
}

// planFCFS streams the (arrival, id)-ordered request list through fill's
// packing rules, deduplicating docs with a generation-stamped bitmap. The
// order is kept sorted lazily: appends are monotone in steady state, so a
// sort only happens after an out-of-order add or a rebuild from an
// unsorted slice.
func (x *DemandIndex) planFCFS(capacity int) []xmldoc.DocID {
	if x.sortDirty {
		sort.Slice(x.byArrival, func(i, j int) bool {
			a, b := x.byArrival[i], x.byArrival[j]
			if a.arrival != b.arrival {
				return a.arrival < b.arrival
			}
			return a.id < b.id
		})
		x.sortDirty = false
	}
	x.ensureSeen()
	gen := x.nextSeenGen()
	out := x.out[:0]
	used := 0
	for _, rs := range x.byArrival {
		if rs.dead {
			continue
		}
		for _, d := range rs.docs {
			if x.seen[d] == gen {
				continue
			}
			x.seen[d] = gen
			s := x.doc(d).size
			if used+s > capacity {
				if used == 0 && s > capacity {
					x.out = out
					return []xmldoc.DocID{d}
				}
				continue
			}
			out = append(out, d)
			used += s
		}
	}
	x.out = out
	return append([]xmldoc.DocID(nil), out...)
}

// planByCount runs MRF/RxW: integer document scores popped from a max-heap
// (score descending, doc ascending — the reference's stable sort order)
// through fill's packing rules, with an early exit once no live document
// can fit the remaining capacity.
func (x *DemandIndex) planByCount(capacity int, score func(*demandDoc) int64) []xmldoc.DocID {
	h := x.heap[:0]
	minSize := int(^uint(0) >> 1)
	for _, ds := range x.docTab {
		if ds == nil {
			continue
		}
		h = append(h, docHeapEntry{iscore: score(ds), doc: ds.id})
		if ds.size < minSize {
			minSize = ds.size
		}
	}
	heapify(h, lessByCount)
	out := x.out[:0]
	used := 0
	for len(h) > 0 {
		if used > 0 && capacity-used < minSize {
			break // nothing left can fit: identical output, fewer pops
		}
		var e docHeapEntry
		e, h = heapPop(h, lessByCount)
		s := x.doc(e.doc).size
		if used+s > capacity {
			if used == 0 && s > capacity {
				x.heap, x.out = h[:0], out
				return []xmldoc.DocID{e.doc}
			}
			continue
		}
		out = append(out, e.doc)
		used += s
	}
	x.heap, x.out = h[:0], out
	return append([]xmldoc.DocID(nil), out...)
}

// planLeeLo is the greedy Lee & Lo allocation over a lazy max-heap of
// document scores. Because scores only grow while a plan accrues picks
// (remaining bytes shrink), stale heap entries underestimate: picking a
// document therefore eagerly re-scores every document sharing a requester
// with it and pushes a fresh versioned entry (invalidate-and-repush), so
// the heap top with a current version is always the true maximum and stale
// pops are simply discarded. Non-fitting documents are dropped permanently
// (used bytes only grow), and per-request plan deltas are rolled back on
// exit.
func (x *DemandIndex) planLeeLo(capacity int) []xmldoc.DocID {
	x.refreshScores()
	x.plan++
	h := x.heap[:0]
	for _, ds := range x.docTab {
		if ds == nil {
			continue
		}
		h = append(h, docHeapEntry{fscore: ds.score, doc: ds.id, ver: ds.hver})
	}
	heapify(h, lessLeeLo)
	out := x.out[:0]
	used := 0
	touched := x.touched[:0]
	for len(h) > 0 {
		var e docHeapEntry
		e, h = heapPop(h, lessLeeLo)
		ds := x.doc(e.doc)
		if ds == nil || ds.pickedAt == x.plan || ds.droppedAt == x.plan || e.ver != ds.hver {
			continue
		}
		s := ds.size
		if used+s > capacity && !(used == 0 && s > capacity) {
			ds.droppedAt = x.plan
			continue
		}
		ds.pickedAt = x.plan
		out = append(out, ds.id)
		used += s
		x.op++
		ds.rescoredAt = x.op
		for _, rs := range ds.reqs {
			if rs.planDelta == 0 {
				touched = append(touched, rs)
			}
			rs.planDelta += s
		}
		// Rescore sharers only after every requester's delta is applied:
		// a doc sharing several requesters with the pick must see all of
		// them shrink before its fresh entry is scored. Rescoring a
		// document that shares no requester re-sums the same terms in the
		// same order, so its fresh entry equals its live one and the pop
		// order — and the plan — is the same on either path.
		if x.sharersFromTable(ds) {
			for _, o := range x.docTab {
				if o != nil {
					h = x.rescore(h, ds, o)
				}
			}
		} else {
			for _, rs := range ds.reqs {
				for _, d2 := range rs.docs {
					h = x.rescore(h, ds, x.doc(d2))
				}
			}
		}
		if used >= capacity {
			break
		}
	}
	for _, rs := range touched {
		rs.planDelta = 0
	}
	x.touched = touched[:0]
	x.heap, x.out = h[:0], out
	return append([]xmldoc.DocID(nil), out...)
}

// sharersFromTable reports whether the documents sharing a requester with ds
// are found faster by walking the live documents than by following ds's
// requester→document links: whether the links outnumber them.
func (x *DemandIndex) sharersFromTable(ds *demandDoc) bool {
	links := 0
	for _, rs := range ds.reqs {
		if links += len(rs.docs); links > x.ndocs {
			return true
		}
	}
	return false
}

// rescore pushes a fresh versioned entry for o against the plan being built,
// once per pick, unless o is the pick itself or already out of the plan.
func (x *DemandIndex) rescore(h []docHeapEntry, pick, o *demandDoc) []docHeapEntry {
	if o == pick || o.rescoredAt == x.op || o.pickedAt == x.plan || o.droppedAt == x.plan {
		return h
	}
	o.rescoredAt = x.op
	o.hver++
	return heapPush(h, docHeapEntry{fscore: x.planScore(o), doc: o.id, ver: o.hver}, lessLeeLo)
}

// lessLeeLo orders heap entries by float score descending, doc ascending —
// the pop order the reference's ascending strict-max scan produces.
func lessLeeLo(a, b docHeapEntry) bool {
	if a.fscore != b.fscore {
		return a.fscore > b.fscore
	}
	return a.doc < b.doc
}

// lessByCount orders heap entries by integer score descending, doc
// ascending.
func lessByCount(a, b docHeapEntry) bool {
	if a.iscore != b.iscore {
		return a.iscore > b.iscore
	}
	return a.doc < b.doc
}

func heapify(h []docHeapEntry, less func(a, b docHeapEntry) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
}

func heapPush(h []docHeapEntry, e docHeapEntry, less func(a, b docHeapEntry) bool) []docHeapEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func heapPop(h []docHeapEntry, less func(a, b docHeapEntry) bool) (docHeapEntry, []docHeapEntry) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	siftDown(h, 0, less)
	return top, h
}

func siftDown(h []docHeapEntry, i int, less func(a, b docHeapEntry) bool) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && less(h[l], h[best]) {
			best = l
		}
		if r < n && less(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
