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
		return ds.count
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
		return ds.count * oldest
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
		if rs.dead() {
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

// planLeeLo is the greedy Lee & Lo allocation with an exact lazy pick. A
// pick shrinks its requesters' remaining bytes, so it raises the score of a
// document sharing a requester with it by at most the pick's growth: the
// sum, over the pick's requesters, of the rise of their term
// 1/(remaining − planDelta). A requester the pick completes loses its term,
// and that fall stays out of the growth. Every candidate keeps its last
// exactly summed plan score and the growth of the picks since that shared a
// requester with it, so (pscore + grow)·(1+μ) bounds its current score
// (leeLoSlack derives μ). The sharers are found from the shorter list, as
// DeliverDoc finds stale scores: when the pick's requester→document links
// outnumber the live documents, every candidate takes the growth.
//
// The candidates sit in a max-heap on their rank key under (key desc, doc
// asc): pscore where it is exact (no pick since its summation shared a
// requester with it), the bound elsewhere. Each pick re-sums the top with
// planScore (the reference's terms in its order) until the top is exact. It
// then outranks every other candidate's current score under (score desc,
// doc asc) — the order the reference's ascending strict-max scan picks in —
// so the plan is PlanCycle's. Re-summing lowers the top's key, so it sifts
// down. Growth on the link path only raises keys, so each sharer sifts up.
// Growth for the whole table turns exact keys into bounds and is rounded
// into each candidate's own grow term, so it can tie or reorder keys and the
// heap is rebuilt; that growth visits every candidate already, so the
// rebuild adds work of the same order. A
// document that no longer fits is dropped when it reaches the top (used
// bytes only grow), and per-request plan deltas are rolled back on exit.
func (x *DemandIndex) planLeeLo(capacity int) []xmldoc.DocID {
	x.refreshScores()
	x.op++
	h := x.cands[:0]
	minSize := int(^uint(0) >> 1)
	for _, ds := range x.docTab {
		if ds != nil {
			ds.pscore, ds.grow, ds.summedAt, ds.key = ds.score, 0, x.op, ds.score
			h = append(h, ds)
			if ds.size < minSize {
				minSize = ds.size
			}
		}
	}
	onePlusMu := 1 + leeLoSlack(len(x.reqs)+len(h))
	leeLoHeapify(h)
	out := x.out[:0]
	used := 0
	touched := x.touched[:0]
	for len(h) > 0 {
		if used > 0 && capacity-used < minSize {
			break // nothing left can fit
		}
		ds := h[0]
		if used > 0 && used+ds.size > capacity {
			h = leeLoPop(h)
			continue
		}
		if ds.grownAt > ds.summedAt {
			ds.pscore, ds.grow, ds.summedAt = x.planScore(ds), 0, x.op
			ds.key = ds.pscore
			x.resums++
			leeLoDown(h, 0)
			continue
		}
		h = leeLoPop(h)
		out = append(out, ds.id)
		s := ds.size
		if used += s; used >= capacity {
			break
		}
		g := 0.0
		for c := range ds.reqs.chunks {
			for _, rs := range ds.reqs.part(c) {
				if rs.planDelta == 0 {
					touched = append(touched, rs)
				}
				old := rs.inv // 1/(remaining − planDelta), a gap ≥ s: rs still missed ds
				rs.planDelta += s
				if rs.reinv(); rs.inv > 0 {
					g += rs.inv - old
				}
			}
		}
		x.op++
		if x.sharersFromTable(ds) {
			for _, o := range h {
				x.addGrowth(o, g)
				o.key = (o.pscore + o.grow) * onePlusMu
			}
			leeLoHeapify(h)
			continue
		}
		for c := range ds.reqs.chunks {
			for _, rs := range ds.reqs.part(c) {
				for _, d2 := range rs.docs {
					if o := x.doc(d2); x.addGrowth(o, g) && o.hpos >= 0 {
						o.key = (o.pscore + o.grow) * onePlusMu
						leeLoUp(h, o.hpos)
					}
				}
			}
		}
	}
	for _, rs := range touched {
		rs.planDelta = 0
		rs.reinv()
	}
	x.touched = touched[:0]
	x.cands, x.out = h[:0], out
	return append([]xmldoc.DocID(nil), out...)
}

// sharersFromTable reports whether the documents sharing a requester with ds
// are found faster by walking the live documents than by following ds's
// requester→document links: whether the links outnumber them.
func (x *DemandIndex) sharersFromTable(ds *demandDoc) bool {
	links := 0
	for c := range ds.reqs.chunks {
		for _, rs := range ds.reqs.part(c) {
			if links += len(rs.docs); links > x.ndocs {
				return true
			}
		}
	}
	return false
}

// addGrowth adds the current pick's growth g to o's bound, once per pick,
// and reports whether it did.
func (x *DemandIndex) addGrowth(o *demandDoc, g float64) bool {
	if o.grownAt == x.op {
		return false
	}
	o.grow += g
	o.grownAt = x.op
	return true
}

// leeLoAbove reports whether a ranks before b in planLeeLo's heap: key
// descending, doc ascending.
func leeLoAbove(a, b *demandDoc) bool {
	return a.key > b.key || a.key == b.key && a.id < b.id
}

func leeLoHeapify(h []*demandDoc) {
	for i, o := range h {
		o.hpos = i
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		leeLoDown(h, i)
	}
}

// leeLoPop removes the top of h.
func leeLoPop(h []*demandDoc) []*demandDoc {
	h[0].hpos = -1
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	if n > 0 {
		leeLoDown(h, 0)
	}
	return h
}

func leeLoUp(h []*demandDoc, i int) {
	o := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !leeLoAbove(o, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].hpos = i
		i = p
	}
	h[i] = o
	o.hpos = i
}

func leeLoDown(h []*demandDoc, i int) {
	o := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && leeLoAbove(h[c+1], h[c]) {
			c++
		}
		if !leeLoAbove(h[c], o) {
			break
		}
		h[i] = h[c]
		h[i].hpos = i
		i = c
	}
	h[i] = o
	o.hpos = i
}

// leeLoSlack returns μ for planLeeLo's bound, given n at least the
// requesters (entries, not the requests they stand for) of any document and
// the picks of a plan.
//
// With u = 2⁻⁵³ and γ = γₙ = n·u/(1 − n·u), a float sum of at most n
// non-negative terms is within a factor 1 ± γ of their exact sum. Both
// planners add the same float terms t = fl(w·fl(1/rem)) in the same order;
// let S be the exact sum of a document's current terms. The two roundings
// inside a term are not errors here: S is a sum of the float terms
// themselves, which is what both planners compare. They matter only
// through monotonicity: rounding is monotone, so as a plan's picks shrink
// rem a term never falls, except to 0 when its requester completes. A
// summed score s is then at least (1−γ)·S. Until the next summation S rises
// by at most the exact growth of the picks since: a shared requester's
// rise t_new − t_old ≥ 0 is part of its pick's growth, and a term that falls
// to 0 only lowers S. grow is at least (1−u)(1−γ)² of that growth (each rise
// is a rounded difference of two terms, summed per pick and then over
// picks, all non-negative). The current score is therefore at most
// (1+γ)·(s/(1−γ) + grow/(1−γ)³) ≤ (1+γ)/(1−γ)³·(s + grow), while the
// bound's add, the rounding of 1+μ and its multiply each lose at most a
// factor 1−u ≥ 1−γ. The bound holds when 1+μ ≥ (1+γ)/(1−γ)⁶, which μ = 8γ
// meets for γ ≤ 1/64 (n ≤ 2⁴⁶). There 16·n·u ≥ 8γ, and n·2⁻⁴⁹ is exact in
// floating point. Weights change no factor: they are inside the terms, and
// a weighted entry is one term of a sum, so n counts entries.
func leeLoSlack(n int) float64 {
	return float64(n) * 0x1p-49
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
