package schedule

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/xmldoc"
)

// demandReq is one entry's scheduling state inside a DemandIndex: a pending
// request, or a class of them that lack the same documents.
type demandReq struct {
	id      int64
	arrival int64
	// weight is the number of requests the entry stands for, ≥ 1 while it
	// is tracked; 0 marks a removed entry awaiting byArrival compaction.
	weight int
	docs   []xmldoc.DocID // still-missing docs, sorted ascending
	// remaining is the byte sum of docs (LeeLo's denominator base).
	remaining int
	// planDelta is the bytes of docs picked for this request within the
	// plan currently being built; always rolled back to 0 afterwards.
	planDelta int
	// inv is the entry's LeeLo term weight·(1/(remaining − planDelta)), or
	// 0 when that is not positive; reinv refreshes it after any of them
	// changes.
	inv float64
}

// dead reports whether rs was removed.
func (rs *demandReq) dead() bool { return rs.weight == 0 }

// reqChunkLen is the number of requesters one chunk of a requester list
// holds. Every chunk has this size, so a chunk one document frees serves any
// other.
const reqChunkLen = 128

type reqChunk [reqChunkLen]*demandReq

// reqList is a document's requesters in ID order, so LeeLo's float score
// sums run in exactly the order the reference PlanCycle sums the entries
// sorted by ID — bit-identical summation, whatever order the entries were
// applied in. Its requesters are the first n slots of its chunks, in
// directory order. Chunks come from the index's free list and go back to it,
// cleared, as the list shrinks; the directory keeps its capacity, so a
// document demanded again reuses it.
type reqList struct {
	chunks []*reqChunk // len(chunks) == ⌈n / reqChunkLen⌉
	n      int
}

func (l *reqList) at(i int) *demandReq { return l.chunks[i/reqChunkLen][i%reqChunkLen] }

// part returns the used slots of chunk c. Walking part(0), part(1), … visits
// the requesters in ID order.
func (l *reqList) part(c int) []*demandReq {
	if end := l.n - c*reqChunkLen; end < reqChunkLen {
		return l.chunks[c][:end]
	}
	return l.chunks[c][:]
}

// search returns the position of the first requester whose ID is at least
// id.
func (l *reqList) search(id int64) int {
	return sort.Search(l.n, func(i int) bool { return l.at(i).id >= id })
}

// minArrival returns the earliest arrival among the requesters of a
// non-empty list.
func (l *reqList) minArrival() int64 {
	min := l.at(0).arrival
	for c := range l.chunks {
		for _, r := range l.part(c) {
			if r.arrival < min {
				min = r.arrival
			}
		}
	}
	return min
}

// demandDoc is one demanded document's aggregation inside a DemandIndex.
type demandDoc struct {
	id         xmldoc.DocID
	size       int
	reqs       reqList
	count      int64 // Σ weight over reqs: MRF's count, RxW's R
	minArrival int64
	// score is the cached LeeLo base score Σ 1/remaining over reqs, valid
	// when dirty is false. Plans never write it.
	score float64
	dirty bool
	// pscore is the doc's LeeLo score as last summed within the plan being
	// built, at pick stamp summedAt (the index's op counter); grow bounds
	// what the plan's picks since have added to it, the last at grownAt
	// (see planLeeLo).
	pscore   float64
	grow     float64
	summedAt uint64
	grownAt  uint64
	// key is the doc's rank key in planLeeLo's pick heap and hpos its
	// position there (-1 once popped); both are valid only within a plan.
	key  float64
	hpos int
}

// docHeapEntry is one candidate document in MRF's and RxW's selection heap.
type docHeapEntry struct {
	iscore int64 // MRF count / RxW count×wait
	doc    xmldoc.DocID
}

// DemandIndex is persistent per-document demand aggregation maintained
// across broadcast cycles by its driver's deltas instead of being rebuilt
// from each cycle's full pending slice: per-document requester lists with
// weight sums for MRF and RxW, arrival extrema for RxW, and cached LeeLo
// scores with dirty tracking. Every policy's PlanIndexed plans directly from
// it and is defined to produce exactly the plan the reference PlanCycle would
// produce for the equivalent pending slice. Its entries are Requests, each of
// which may stand for several requests (Request.Weight). engine.Ledger is its
// one driver: it keeps one entry per class of requests, adds a class at its
// first admission and raises its weight at each further one, delivers each
// aired document, hands over a cycle's class splits at once (ApplyAll),
// re-applies what a class did not receive and removes each class it retires
// or merges away.
//
// Contracts:
//   - Request.Docs handed to Apply/Rebuild are sorted ascending without
//     duplicates and Weight is not negative (checked: a violation is an error
//     naming the request). The index copies Docs, so callers may lend a slice
//     they mutate between calls.
//   - An entry keeps its arrival time for its whole life; Apply of a known
//     ID reconciles its doc set and weight against the incoming ones.
//   - Requester lists are in ID order: the equivalent pending slice lists
//     the entries sorted by ID, whatever order they were applied in, and
//     re-applying a known ID keeps its place.
//   - An entry DeliverDoc empties stays tracked, on no requester list and
//     adding nothing to any plan, until Remove drops it.
//   - Len counts requests, Σ Weight, not entries.
//
// Not safe for concurrent use; its driver calls it from one goroutine.
type DemandIndex struct {
	reqs map[int64]*demandReq
	n    int // Σ weight over reqs
	// docTab is the per-document state, dense-indexed by DocID (a uint16):
	// slice indexing keeps the planners' inner loops off map hashing, which
	// dominated the dense-sharing profile. nil slots are undemanded docs.
	docTab []*demandDoc
	ndocs  int
	// docMem holds the state of every document ever demanded, by DocID,
	// whether demanded now or not, so a document's requester-list directory
	// outlives its demand and a Rebuild.
	docMem []*demandDoc
	// free holds the cleared requester-list chunks no list uses.
	free []*reqChunk
	// listAllocs counts requester-list storage allocations, new chunks and
	// directory growth, for the tests that pin their reuse.
	listAllocs int

	// byArrival holds live requests plus tombstones in (arrival, id) order
	// when sortDirty is false; FCFS streams it directly.
	byArrival []*demandReq
	tombs     int
	sortDirty bool

	dirty []xmldoc.DocID // docs whose cached LeeLo score is stale
	edits int            // requester-list edits since TakeEdits

	maxDoc  xmldoc.DocID
	seen    []uint32 // FCFS dedup bitmap, generation-stamped
	seenGen uint32

	op uint64 // per-pick stamp epoch (LeeLo summedAt, grownAt)
	// resums counts LeeLo's exact score re-summations within plans.
	resums int

	// plan scratch, reused across cycles
	heap    []docHeapEntry
	cands   []*demandDoc
	out     []xmldoc.DocID
	touched []*demandReq
	// ApplyAll scratch
	fresh     []*demandReq
	linkStart []int
	links     []*demandReq

	// rebuild scratch, reused across rebuilds
	reqSlab   []demandReq
	byID      []*demandReq
	docIDSlab []xmldoc.DocID
	offs      []int
}

// NewDemandIndex returns an empty index.
func NewDemandIndex() *DemandIndex {
	return &DemandIndex{reqs: make(map[int64]*demandReq)}
}

// doc returns the state of a demanded document, or nil.
func (x *DemandIndex) doc(d xmldoc.DocID) *demandDoc {
	if int(d) >= len(x.docTab) {
		return nil
	}
	return x.docTab[d]
}

// newDoc makes d demanded with no requesters yet. Its state comes from
// docMem, keeping the requester-list directory it had before.
func (x *DemandIndex) newDoc(d xmldoc.DocID, size int, minArrival int64) *demandDoc {
	if int(d) >= len(x.docTab) {
		n := 2 * len(x.docTab)
		if n <= int(d) {
			n = int(d) + 1
		}
		x.docTab = append(x.docTab, make([]*demandDoc, n-len(x.docTab))...)
		x.docMem = append(x.docMem, make([]*demandDoc, n-len(x.docMem))...)
	}
	ds := x.docMem[d]
	if ds == nil {
		ds = new(demandDoc)
		x.docMem[d] = ds
	}
	*ds = demandDoc{id: d, size: size, minArrival: minArrival, reqs: reqList{chunks: ds.reqs.chunks}}
	x.docTab[d] = ds
	x.ndocs++
	if d > x.maxDoc {
		x.maxDoc = d
	}
	return ds
}

func (x *DemandIndex) delDoc(d xmldoc.DocID) {
	x.release(&x.docTab[d].reqs)
	x.docTab[d] = nil
	x.ndocs--
}

// push appends rs to l.
func (x *DemandIndex) push(l *reqList, rs *demandReq) {
	if l.n == len(l.chunks)*reqChunkLen {
		if len(l.chunks) == cap(l.chunks) {
			x.listAllocs++
		}
		var c *reqChunk
		if k := len(x.free); k > 0 {
			c, x.free = x.free[k-1], x.free[:k-1]
		} else {
			c = new(reqChunk)
			x.listAllocs++
		}
		l.chunks = append(l.chunks, c)
	}
	l.chunks[l.n/reqChunkLen][l.n%reqChunkLen] = rs
	l.n++
}

// insertAt puts rs at position i of l, moving the requesters from i on one
// slot up.
func (x *DemandIndex) insertAt(l *reqList, i int, rs *demandReq) {
	x.push(l, nil)
	last := len(l.chunks) - 1
	c, k := i/reqChunkLen, i%reqChunkLen
	for ; last > c; last-- {
		ch := l.part(last)
		copy(ch[1:], ch)
		ch[0] = l.chunks[last-1][reqChunkLen-1]
	}
	ch := l.part(c)
	copy(ch[k+1:], ch[k:])
	ch[k] = rs
}

// removeAt deletes position i of l, moving the requesters after it one slot
// down, and frees the last chunk once it is empty.
func (x *DemandIndex) removeAt(l *reqList, i int) {
	last := len(l.chunks) - 1
	c, k := i/reqChunkLen, i%reqChunkLen
	for ; c < last; c, k = c+1, 0 {
		ch := l.chunks[c]
		copy(ch[k:], ch[k+1:])
		ch[reqChunkLen-1] = l.chunks[c+1][0]
	}
	ch := l.part(last)
	copy(ch[k:], ch[k+1:])
	ch[len(ch)-1] = nil
	l.n--
	if len(ch) == 1 {
		x.free = append(x.free, l.chunks[last])
		l.chunks[last] = nil
		l.chunks = l.chunks[:last]
	}
}

// release empties l, returning its chunks to the free list cleared.
func (x *DemandIndex) release(l *reqList) {
	for c := range l.chunks {
		clear(l.part(c))
		x.free = append(x.free, l.chunks[c])
		l.chunks[c] = nil
	}
	l.chunks, l.n = l.chunks[:0], 0
}

// Len is the number of requests the tracked entries stand for, Σ weight,
// including the entries DeliverDoc emptied that the driver has not removed
// yet.
func (x *DemandIndex) Len() int { return x.n }

// NumDocs is the number of distinct demanded documents.
func (x *DemandIndex) NumDocs() int { return x.ndocs }

// TakeEdits returns and resets the number of requester-list edits applied
// since the last call (the schedule-delta probe's output unit).
func (x *DemandIndex) TakeEdits() int {
	e := x.edits
	x.edits = 0
	return e
}

// Apply upserts one entry: unknown IDs are added, known IDs are reconciled
// against the incoming weight and doc set (documents delivered elsewhere are
// detached, lost documents re-attached) keeping the entry's place on every
// list. An arrival change is treated as a new entry. A
// request violating the Request contract is refused and the index left as
// is.
func (x *DemandIndex) Apply(r Request, size func(xmldoc.DocID) int) error {
	if err := r.Validate(); err != nil {
		return err
	}
	rs := x.reqs[r.ID]
	if rs == nil {
		x.addRequest(r, size)
		return nil
	}
	if rs.arrival != r.Arrival {
		x.Remove(r.ID)
		x.addRequest(r, size)
		return nil
	}
	before, reweighted := rs.remaining, rs.weight != r.weight()
	if reweighted {
		x.setWeight(rs, r.weight())
	}
	old, incoming := rs.docs, r.Docs
	i, j := 0, 0
	changed := false
	for i < len(old) || j < len(incoming) {
		switch {
		case j == len(incoming) || (i < len(old) && old[i] < incoming[j]):
			x.detach(rs, old[i])
			i++
			changed = true
		case i == len(old) || old[i] > incoming[j]:
			x.attach(rs, incoming[j], size)
			j++
			changed = true
		default:
			i, j = i+1, j+1
		}
	}
	if changed {
		rs.docs = append(rs.docs[:0], incoming...)
	}
	if rs.remaining != before || reweighted {
		for _, d := range rs.docs {
			x.markDirty(x.doc(d))
		}
	}
	return nil
}

// ApplyAll applies every entry of reqs, whose IDs are distinct, leaving the
// index as Apply on each in turn would (in any order: requester lists are in
// ID order), but links the new entries into each document's requester list
// in one merge pass, where Apply's insertions below a list's tail each move
// its tail on. A request violating the Request contract is refused, naming
// it, and the index left as is.
func (x *DemandIndex) ApplyAll(reqs []Request, size func(xmldoc.DocID) int) error {
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	fresh := x.fresh[:0]
	top := 0 // past the highest document a new entry asks for
	for _, r := range reqs {
		if rs := x.reqs[r.ID]; rs != nil {
			if rs.arrival == r.Arrival {
				_ = x.Apply(r, size) // validated above
				continue
			}
			x.Remove(r.ID)
		}
		fresh = append(fresh, x.track(r))
		if n := len(r.Docs); n > 0 {
			top = max(top, int(r.Docs[n-1])+1)
		}
	}
	// The new entries' links, by document (a counting sort), each
	// document's in ID order: the order its list takes them in.
	slices.SortFunc(fresh, byID)
	start := grow(x.linkStart, top+1)
	clear(start)
	for _, rs := range fresh {
		for _, d := range rs.docs {
			start[d+1]++
		}
	}
	for d := 1; d <= top; d++ {
		start[d] += start[d-1]
	}
	links := grow(x.links, start[top])
	for _, rs := range fresh {
		for _, d := range rs.docs {
			links[start[d]] = rs
			start[d]++
		}
	}
	// start[d] is now where document d's links end.
	for d, begin := 0, 0; d < top; d++ {
		if end := start[d]; end > begin {
			x.merge(xmldoc.DocID(d), links[begin:end], size)
			begin = end
		}
	}
	for _, rs := range fresh {
		rs.reinv()
	}
	clear(links)
	clear(fresh)
	x.links, x.fresh, x.linkStart = links[:0], fresh[:0], start
	return nil
}

// merge links run, new entries for document d in ID order, into d's
// requester list, as attach does each, moving each old requester once.
func (x *DemandIndex) merge(d xmldoc.DocID, run []*demandReq, size func(xmldoc.DocID) int) {
	ds := x.doc(d)
	if ds == nil {
		ds = x.newDoc(d, size(d), run[0].arrival)
	}
	l := &ds.reqs
	old := l.n
	for range run {
		x.push(l, nil)
	}
	// Fill the list from its end: each slot takes the larger-ID of the old
	// requesters and the new entries not yet placed.
	i, j := old-1, len(run)-1
	for w := l.n - 1; j >= 0; w-- {
		var rs *demandReq
		if i >= 0 && l.at(i).id > run[j].id {
			rs, i = l.at(i), i-1
		} else {
			rs, j = run[j], j-1
			ds.count += int64(rs.weight)
			rs.remaining += ds.size
			ds.minArrival = min(ds.minArrival, rs.arrival)
			x.edits++
		}
		l.chunks[w/reqChunkLen][w%reqChunkLen] = rs
	}
	x.markDirty(ds)
}

// setWeight changes what rs stands for to w requests, on every list it is
// on.
func (x *DemandIndex) setWeight(rs *demandReq, w int) {
	dw := int64(w - rs.weight)
	for _, d := range rs.docs {
		x.doc(d).count += dw
	}
	x.n += w - rs.weight
	rs.weight = w
	rs.reinv()
}

// Remove drops one tracked request (the driver retired it).
func (x *DemandIndex) Remove(id int64) {
	rs := x.reqs[id]
	if rs == nil {
		return
	}
	x.removeReq(rs)
}

func (x *DemandIndex) removeReq(rs *demandReq) {
	for _, d := range rs.docs {
		x.detach(rs, d)
	}
	x.n -= rs.weight
	rs.weight, rs.docs = 0, nil
	x.tombs++
	delete(x.reqs, rs.id)
	if x.tombs > 64 && x.tombs*2 > len(x.byArrival) {
		live := x.byArrival[:0]
		for _, r := range x.byArrival {
			if !r.dead() {
				live = append(live, r)
			}
		}
		x.byArrival = live
		x.tombs = 0
	}
}

// DeliverDoc delivers one document to every requester: it leaves their
// missing sets and the index. A requester left with nothing stays tracked,
// on no requester list, until the driver removes it. The documents whose
// scores go stale are found as planLeeLo finds a pick's sharers
// (sharersFromTable); a cached score recomputed without cause comes out the
// same.
func (x *DemandIndex) DeliverDoc(d xmldoc.DocID) {
	ds := x.doc(d)
	if ds == nil {
		return
	}
	dirtyAll := x.sharersFromTable(ds)
	if dirtyAll {
		for _, o := range x.docTab {
			x.markDirty(o)
		}
	}
	for c := range ds.reqs.chunks {
		for _, rs := range ds.reqs.part(c) {
			i := sort.Search(len(rs.docs), func(i int) bool { return rs.docs[i] >= d })
			copy(rs.docs[i:], rs.docs[i+1:])
			rs.docs = rs.docs[:len(rs.docs)-1]
			rs.remaining -= ds.size
			rs.reinv()
			x.edits++
			if !dirtyAll {
				for _, d2 := range rs.docs {
					x.markDirty(x.doc(d2))
				}
			}
		}
	}
	x.delDoc(d)
}

func (x *DemandIndex) addRequest(r Request, size func(xmldoc.DocID) int) {
	rs := x.track(r)
	for _, d := range r.Docs {
		x.attach(rs, d, size)
	}
}

// track makes r a tracked entry on no requester list yet, with its own copy
// of r.Docs and no remaining bytes.
func (x *DemandIndex) track(r Request) *demandReq {
	rs := &demandReq{id: r.ID, arrival: r.Arrival, weight: r.weight()}
	x.n += rs.weight
	rs.docs = append(make([]xmldoc.DocID, 0, len(r.Docs)), r.Docs...)
	x.reqs[r.ID] = rs
	if n := len(x.byArrival); n > 0 {
		if last := x.byArrival[n-1]; r.Arrival < last.arrival ||
			(r.Arrival == last.arrival && r.ID < last.id) {
			x.sortDirty = true
		}
	}
	x.byArrival = append(x.byArrival, rs)
	return rs
}

// attach adds rs to d's requester list at its ID position and folds the
// doc's size into the request's remaining bytes. Only a document new to the
// index asks size for it; a request with a higher ID than the list's last
// (a new one, from a driver that numbers requests as it admits them)
// appends.
func (x *DemandIndex) attach(rs *demandReq, d xmldoc.DocID, size func(xmldoc.DocID) int) {
	ds := x.doc(d)
	if ds == nil {
		ds = x.newDoc(d, size(d), rs.arrival)
	} else if rs.arrival < ds.minArrival {
		ds.minArrival = rs.arrival
	}
	if n := ds.reqs.n; n == 0 || ds.reqs.at(n-1).id < rs.id {
		x.push(&ds.reqs, rs)
	} else {
		x.insertAt(&ds.reqs, ds.reqs.search(rs.id), rs)
	}
	ds.count += int64(rs.weight)
	rs.remaining += ds.size
	rs.reinv()
	x.markDirty(ds)
	x.edits++
}

// detach removes rs from d's requester list, re-deriving the arrival
// extremum when rs held it, and drops the doc once undemanded.
func (x *DemandIndex) detach(rs *demandReq, d xmldoc.DocID) {
	ds := x.doc(d)
	x.removeAt(&ds.reqs, ds.reqs.search(rs.id))
	ds.count -= int64(rs.weight)
	rs.remaining -= ds.size
	rs.reinv()
	x.edits++
	if ds.reqs.n == 0 {
		x.delDoc(d)
		return
	}
	if rs.arrival == ds.minArrival {
		ds.minArrival = ds.reqs.minArrival()
	}
	x.markDirty(ds)
}

func (x *DemandIndex) markDirty(ds *demandDoc) {
	if ds != nil && !ds.dirty {
		ds.dirty = true
		x.dirty = append(x.dirty, ds.id)
	}
}

// refreshScores recomputes the cached LeeLo base score of every dirtied
// doc. Summation runs over the ID-ordered requester list, which is the
// reference oracle's order over the entries sorted by ID, so cached and from-scratch scores
// are bit-identical.
func (x *DemandIndex) refreshScores() {
	for _, d := range x.dirty {
		if ds := x.doc(d); ds != nil && ds.dirty {
			ds.score = x.planScore(ds)
			ds.dirty = false
		}
	}
	x.dirty = x.dirty[:0]
}

// planScore is the doc's LeeLo score against the plan being built:
// Σ weight·(1/(remaining − planDelta)) over requesters, in ID order. An
// entry with nothing left adds its inv of 0, which leaves the sum's bits as
// they are.
func (x *DemandIndex) planScore(ds *demandDoc) float64 {
	s := 0.0
	for c := range ds.reqs.chunks {
		for _, rs := range ds.reqs.part(c) {
			s += rs.inv
		}
	}
	return s
}

// reinv refreshes rs.inv; called wherever weight, remaining or planDelta is
// written. The product is the reference's term, and at weight 1 it is
// 1/rem exactly.
func (rs *demandReq) reinv() {
	rs.inv = 0
	if rem := rs.remaining - rs.planDelta; rem > 0 {
		rs.inv = float64(rs.weight) * (1 / float64(rem))
	}
}

func (x *DemandIndex) nextSeenGen() uint32 {
	x.seenGen++
	if x.seenGen == 0 { // wrapped: stale stamps could alias, restart clean
		clear(x.seen)
		x.seenGen = 1
	}
	return x.seenGen
}

func (x *DemandIndex) ensureSeen() {
	if int(x.maxDoc) >= len(x.seen) {
		grown := make([]uint32, int(x.maxDoc)+1)
		copy(grown, x.seen)
		x.seen = grown
	}
}

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Rebuild replaces the index content from a full pending slice, as applying
// each request in order to an empty index would; no driver calls it, the
// benchmark's planner comparison and the tests do. Request state
// construction is sharded across workers; per-document aggregation is serial
// (document sizes are resolved serially because xmldoc.Document.Size caches
// lazily): every requester list goes back to the free list and is laid out
// again by appending the requests in ID order. Remaining-byte sums are
// sharded again. All scratch, the chunks and every document's chunk
// directory are retained and reused by later rebuilds. A request violating
// the Docs contract fails the rebuild before the index is touched.
func (x *DemandIndex) Rebuild(reqs []Request, size func(xmldoc.DocID) int, workers int) error {
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return err
		}
	}
	clear(x.reqs)
	x.n = 0
	for _, ds := range x.docTab {
		if ds != nil {
			x.release(&ds.reqs)
		}
	}
	clear(x.docTab)
	x.ndocs = 0
	x.byArrival = x.byArrival[:0]
	x.tombs = 0
	x.sortDirty = false
	x.dirty = x.dirty[:0]

	n := len(reqs)
	if n == 0 {
		return nil
	}
	x.offs = grow(x.offs, n+1)
	total := 0
	for i := range reqs {
		x.offs[i] = total
		total += len(reqs[i].Docs)
	}
	x.offs[n] = total
	x.reqSlab = grow(x.reqSlab, n)
	x.docIDSlab = grow(x.docIDSlab, total)

	if workers > n/512+1 {
		workers = n/512 + 1
	}
	if workers < 1 {
		workers = 1
	}
	shard := (n + workers - 1) / workers

	// Phase 1 (sharded): request states with slab-backed doc copies.
	runShards(workers, shard, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := &reqs[i]
			off, end := x.offs[i], x.offs[i+1]
			docs := x.docIDSlab[off:end:end]
			copy(docs, r.Docs)
			x.reqSlab[i] = demandReq{id: r.ID, arrival: r.Arrival, weight: r.weight(), docs: docs}
		}
	})

	// Phase 2 (serial): resolve sizes and lay out the requester lists,
	// appending the requests in ID order.
	x.byID = grow(x.byID, n)
	for i := range x.reqSlab[:n] {
		x.byID[i] = &x.reqSlab[i]
	}
	if !slices.IsSortedFunc(x.byID, byID) {
		slices.SortFunc(x.byID, byID)
	}
	for _, rs := range x.byID {
		for _, d := range rs.docs {
			ds := x.doc(d)
			if ds == nil {
				ds = x.newDoc(d, size(d), rs.arrival)
				x.markDirty(ds)
			} else if rs.arrival < ds.minArrival {
				ds.minArrival = rs.arrival
			}
			x.push(&ds.reqs, rs)
			ds.count += int64(rs.weight)
		}
		x.n += rs.weight
	}

	// Phase 3 (sharded): remaining-byte sums and the reqs map refill.
	var mu sync.Mutex
	runShards(workers, shard, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rs := &x.reqSlab[i]
			sum := 0
			for _, d := range rs.docs {
				sum += x.docTab[d].size
			}
			rs.remaining = sum
			rs.reinv()
		}
		mu.Lock()
		for i := lo; i < hi; i++ {
			x.reqs[x.reqSlab[i].id] = &x.reqSlab[i]
		}
		mu.Unlock()
	})

	x.byArrival = grow(x.byArrival, n)
	for i := range x.reqSlab[:n] {
		x.byArrival[i] = &x.reqSlab[i]
	}
	for i := 1; i < n; i++ {
		a, b := x.byArrival[i-1], x.byArrival[i]
		if b.arrival < a.arrival || (b.arrival == a.arrival && b.id < a.id) {
			x.sortDirty = true
			break
		}
	}
	x.edits += total
	return nil
}

func byID(a, b *demandReq) int { return cmp.Compare(a.id, b.id) }

// runShards runs fn over [0,n) in contiguous ranges of the given width,
// serially when one worker suffices.
func runShards(workers, width, n int, fn func(lo, hi int)) {
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += width {
		hi := lo + width
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
