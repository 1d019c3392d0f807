package core

import (
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// DefaultPruneChurn is the query-churn fraction above which PrunedView.Update
// abandons delta maintenance and re-prunes from scratch: the delta walk plus
// per-flip bookkeeping stops paying for itself once a quarter of the active
// query set turns over in one cycle.
const DefaultPruneChurn = 0.25

// Reasons reported in PruneDelta.Reason when Update ran a full prune.
const (
	// PruneReasonInitial is the view's first Update (nothing to delta from).
	PruneReasonInitial = "initial"
	// PruneReasonIndexChanged means the CI itself changed (document added or
	// removed), invalidating every per-node refcount.
	PruneReasonIndexChanged = "index-changed"
	// PruneReasonChurn means the query-set delta exceeded the churn
	// threshold, making a from-scratch prune cheaper than the delta pass.
	PruneReasonChurn = "churn"
)

// PruneDelta summarises one PrunedView.Update: the query-set delta it was
// given, how much work the update could skip, and the equivalent full-prune
// statistics of the returned PCI.
type PruneDelta struct {
	// Added and Removed count queries entering and leaving the set since
	// the previous Update.
	Added, Removed int
	// Full reports that a from-scratch prune ran; Reason says why (one of
	// the PruneReason* constants). Both are zero for an incremental update.
	Full   bool
	Reason string
	// FlippedMatches counts CI nodes whose matched status (≥1 accepting
	// query) flipped under the delta.
	FlippedMatches int
	// Stats are the full-prune-equivalent statistics for the returned PCI.
	Stats PruneStats
}

// viewQuery is one active query's contribution to the view: the CI nodes
// where it accepts, so removing the query is pure refcount arithmetic.
type viewQuery struct {
	query xpath.Path
	nodes []NodeID
	seen  uint64 // the last Update whose query set held it
}

// nodeSnap and docSnap record a count as it stood when an Update first
// touched it, so that changes which cancel out within the Update flip nothing.
type nodeSnap struct {
	id     NodeID
	before int32
}

type docSnap struct {
	doc    xmldoc.DocID
	before int32
}

// PrunedView derives the PCI (§3.2) for a pending query set and keeps it
// current as the set drifts, in time proportional to the query delta plus the
// PCI it emits. Its state, sized when the CI changes:
//
//   - dense refcounts: per CI node the active queries accepting there
//     (matched) and the matched nodes in its subtree (kept), per DocID the
//     matched nodes whose subtree holds it (requested); every query keeps its
//     match nodes, so removing it is refcount arithmetic;
//   - per CI node its subtree's document set, merged once per CI from its
//     children's sets, and per kept node its candidate set — own tuples plus
//     the subtree sets of its unkept children, where the tuples of dropped
//     subtrees bubble to — cached until a child's kept status flips.
//
// An Update subtracts the removed queries' match nodes, runs an automaton of
// just the added queries over the trie, and follows each matched-status flip
// up its root path and across its subtree set, stamping the nodes and
// documents it touches with the Update's epoch. Then it returns the previous
// PCI as it was when no kept node and no document flipped, and otherwise
// writes a new PCI into three exact-size slabs (nodes, child IDs, document
// IDs), listing the kept nodes in CI order, so the CI must be stored in DFS
// pre-order as Validate checks. Returned indexes are never written again, so
// earlier cycles' PCIs stay valid. A new CI pointer or query churn above the
// view's threshold clears the refcounts and adds every query afresh: a full
// prune, which is all Index.Prune is. The PCI is node-, attachment- and
// byte-identical however it was produced.
//
// A PrunedView is not safe for concurrent use; the engine drives it from one
// goroutine.
type PrunedView struct {
	churn float64
	epoch uint64 // numbers Updates

	queries map[string]*viewQuery
	key     []byte       // the dedup key of the query in hand
	active  []*viewQuery // this Update's distinct queries, first-seen order
	added   []*viewQuery // the ones among them new to the view
	paths   []xpath.Path // the automaton's input
	touched []nodeSnap   // nodes whose matched count moved this Update
	docs    []docSnap    // documents whose requested count moved

	// Per-CI state.
	ci            *Index
	ciAttachments int
	matchCount    []int32
	keepRef       []int32
	nodeMark      []uint64 // the epoch that last touched the node
	subtree       [][]xmldoc.DocID
	subtreeSlab   []xmldoc.DocID
	cand          [][]xmldoc.DocID
	candOK        []bool
	outID         []NodeID // PCI ID of each kept CI node
	docRef        []int32
	docMark       []uint64 // the epoch that last touched the document
	matchedNodes  int
	requested     int
	merge         [2][]xmldoc.DocID // union scratch

	// Output state.
	pci         *Index
	ends        []int32        // where each PCI node's run in filtered ends
	filtered    []xmldoc.DocID // the requested candidates, node after node
	attachments int
}

// NewPrunedView returns an empty view. churn is the query-churn fraction
// (delta size over the union of old and new query sets) above which Update
// falls back to a full prune; values <= 0 select DefaultPruneChurn, values
// >= 1 never fall back on churn.
func NewPrunedView(churn float64) *PrunedView {
	if churn <= 0 {
		churn = DefaultPruneChurn
	}
	return &PrunedView{churn: churn, queries: make(map[string]*viewQuery)}
}

// Update re-prunes the index to the given query set, reusing the previous
// cycle's work where the delta allows. ci must be the caller's current CI and
// pass Validate, whose pre-order check the output order rests on; a
// different pointer than the previous call's (the index was rebuilt after a
// collection change) resets the view with a full prune. Duplicates and order
// in queries do not matter. The error is always nil.
func (v *PrunedView) Update(ci *Index, queries []xpath.Path) (*Index, PruneDelta, error) {
	// Dedup by canonical string; only a query new to the view allocates.
	v.epoch++
	old := len(v.queries)
	v.active, v.added = v.active[:0], v.added[:0]
	for _, q := range queries {
		v.key = q.AppendString(v.key[:0])
		vq, ok := v.queries[string(v.key)]
		if !ok {
			vq = &viewQuery{query: q}
			v.queries[string(v.key)] = vq
			v.added = append(v.added, vq)
		} else if vq.seen == v.epoch {
			continue
		}
		vq.seen = v.epoch
		v.active = append(v.active, vq)
	}
	delta := PruneDelta{Added: len(v.added), Removed: old - (len(v.active) - len(v.added))}

	switch churn := delta.Added + delta.Removed; {
	case ci != v.ci:
		delta.Full, delta.Reason = true, PruneReasonInitial
		if v.ci != nil {
			delta.Reason = PruneReasonIndexChanged
		}
		v.reset(ci)
	case churn == 0:
		delta.Stats = v.stats()
		return v.pci, delta, nil
	case float64(churn) > v.churn*float64(old+delta.Added): // old ∪ added
		delta.Full, delta.Reason = true, PruneReasonChurn
		v.clearRefs()
	}

	// Removed queries subtract their match nodes; a full prune has cleared
	// the counts and re-adds every query.
	for key, vq := range v.queries {
		if vq.seen == v.epoch {
			continue
		}
		if !delta.Full {
			for _, id := range vq.nodes {
				v.touch(id)
				v.matchCount[id]--
			}
		}
		delete(v.queries, key)
	}
	add := v.added
	if delta.Full {
		add = v.active
	}
	if len(add) > 0 {
		v.paths = v.paths[:0]
		for _, vq := range add {
			vq.nodes = vq.nodes[:0]
			v.paths = append(v.paths, vq.query)
		}
		ci.forEachMatch(yfilter.New(v.paths), func(id NodeID, accepted []int) {
			v.touch(id)
			v.matchCount[id] += int32(len(accepted))
			for _, qi := range accepted {
				add[qi].nodes = append(add[qi].nodes, id)
			}
		})
	}

	// Follow each matched-status flip up its root path (kept counts) and
	// across its subtree set (requested counts).
	keptChanged := delta.Full
	for _, t := range v.touched {
		was, is := t.before > 0, v.matchCount[t.id] > 0
		if was == is {
			continue
		}
		delta.FlippedMatches++
		var dir int32 = 1
		if !is {
			dir = -1
		}
		v.matchedNodes += int(dir)
		for cur := t.id; cur != NoNode; cur = ci.Nodes[cur].Parent {
			v.keepRef[cur] += dir
			if now := v.keepRef[cur]; now == 0 || (dir > 0 && now == 1) {
				keptChanged = true
				if p := ci.Nodes[cur].Parent; p != NoNode {
					v.candOK[p] = false
				}
			}
		}
		for _, d := range v.subtree[t.id] {
			if v.docMark[d] != v.epoch {
				v.docMark[d] = v.epoch
				v.docs = append(v.docs, docSnap{d, v.docRef[d]})
			}
			v.docRef[d] += dir
		}
	}
	docsChanged := false
	for _, s := range v.docs {
		if is := v.docRef[s.doc] > 0; is != (s.before > 0) {
			docsChanged = true
			if is {
				v.requested++
			} else {
				v.requested--
			}
		}
	}
	v.touched, v.docs = v.touched[:0], v.docs[:0]

	if keptChanged || docsChanged {
		v.rebuildOutput()
	}
	delta.Stats = v.stats()
	return v.pci, delta, nil
}

// touch snapshots a node's matched count the first time this Update moves it.
func (v *PrunedView) touch(id NodeID) {
	if v.nodeMark[id] != v.epoch {
		v.nodeMark[id] = v.epoch
		v.touched = append(v.touched, nodeSnap{id, v.matchCount[id]})
	}
}

// reset sizes the per-CI state for ci and merges every node's subtree set,
// leaves first: in pre-order a node's children follow it.
func (v *PrunedView) reset(ci *Index) {
	n := len(ci.Nodes)
	v.ci, v.ciAttachments = ci, ci.NumAttachments()
	// Old contents survive resizing: clearRefs zeroes the counts, a stale
	// stamp is an earlier Update's, and a candidate list is only storage
	// until merged again.
	v.matchCount = resized(v.matchCount, n)
	v.keepRef = resized(v.keepRef, n)
	v.candOK = resized(v.candOK, n)
	v.nodeMark = resized(v.nodeMark, n)
	v.outID = resized(v.outID, n)
	v.subtree = resized(v.subtree, n)
	v.cand = resized(v.cand, n)

	slab, maxDoc := v.subtreeSlab[:0], -1
	for i := n - 1; i >= 0; i-- {
		nd := &ci.Nodes[i]
		set := v.union(nd.Docs, nd.Children, false)
		start := len(slab)
		slab = append(slab, set...)
		v.subtree[i] = slab[start:]
		if len(set) > 0 {
			maxDoc = max(maxDoc, int(set[len(set)-1]))
		}
	}
	// The slab may have moved while it grew: point every set into its
	// final storage.
	for i, off := n-1, 0; i >= 0; i-- {
		end := off + len(v.subtree[i])
		v.subtree[i] = slab[off:end:end]
		off = end
	}
	v.subtreeSlab = slab
	v.docRef = resized(v.docRef, maxDoc+1)
	v.docMark = resized(v.docMark, maxDoc+1)
	v.clearRefs()
}

// clearRefs zeroes every refcount and marks every candidate set stale, for a
// full prune.
func (v *PrunedView) clearRefs() {
	clear(v.matchCount)
	clear(v.keepRef)
	clear(v.candOK)
	clear(v.docRef)
	v.matchedNodes, v.requested = 0, 0
}

// union returns own ∪ the subtree sets of children — all of them, or with
// unkeptOnly those not kept — in scratch that the next call overwrites.
func (v *PrunedView) union(own []xmldoc.DocID, children []NodeID, unkeptOnly bool) []xmldoc.DocID {
	acc, other := append(v.merge[0][:0], own...), v.merge[1]
	for _, c := range children {
		if unkeptOnly && v.keepRef[c] > 0 {
			continue
		}
		other = unionSorted(other[:0], acc, v.subtree[c])
		acc, other = other, acc
	}
	v.merge[0], v.merge[1] = acc, other
	return acc
}

// unionSorted appends the union of two ascending duplicate-free lists to dst.
func unionSorted(dst, a, b []xmldoc.DocID) []xmldoc.DocID {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case a[0] > b[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// candidates returns a kept node's candidate set, merging it again if a
// child's kept status flipped since it was last merged.
func (v *PrunedView) candidates(id NodeID) []xmldoc.DocID {
	if !v.candOK[id] {
		n := &v.ci.Nodes[id]
		v.cand[id] = append(v.cand[id][:0], v.union(n.Docs, n.Children, true)...)
		v.candOK[id] = true
	}
	return v.cand[id]
}

// rebuildOutput writes the PCI of the current refcounts: the kept CI nodes in
// ascending ID order, which is the kept forest's DFS pre-order, with their
// kept children and requested candidates. Nodes without children or tuples
// get nil lists, as the reference prune leaves them.
func (v *PrunedView) rebuildOutput() {
	ci := v.ci
	v.ends, v.filtered = v.ends[:0], v.filtered[:0]
	roots := 0
	for i := range ci.Nodes {
		id := NodeID(i)
		if v.keepRef[id] == 0 {
			continue
		}
		if ci.Nodes[id].Parent == NoNode {
			roots++
		}
		v.outID[id] = NodeID(len(v.ends))
		for _, d := range v.candidates(id) {
			if v.docRef[d] > 0 {
				v.filtered = append(v.filtered, d)
			}
		}
		v.ends = append(v.ends, int32(len(v.filtered)))
	}
	v.pci, v.attachments = &Index{Model: ci.Model}, len(v.filtered)
	if len(v.ends) == 0 {
		return
	}
	// Every kept node is a root or one kept node's child, so the roots and
	// the child lists share one slab of exactly len(ends) IDs.
	nodes := make([]Node, len(v.ends))
	ids := make([]NodeID, len(v.ends))
	var docs []xmldoc.DocID
	if len(v.filtered) > 0 {
		docs = append(make([]xmldoc.DocID, 0, len(v.filtered)), v.filtered...)
	}
	nextRoot, nextChild, start := 0, roots, int32(0)
	for i := range ci.Nodes {
		if v.keepRef[i] == 0 {
			continue
		}
		src, j := &ci.Nodes[i], v.outID[i]
		out := &nodes[j]
		out.ID, out.Label, out.Parent = j, src.Label, NoNode
		if src.Parent == NoNode {
			ids[nextRoot] = j
			nextRoot++
		} else {
			out.Parent = v.outID[src.Parent]
		}
		first := nextChild
		for _, c := range src.Children {
			if v.keepRef[c] > 0 {
				ids[nextChild] = v.outID[c]
				nextChild++
			}
		}
		if nextChild > first {
			out.Children = ids[first:nextChild:nextChild]
		}
		if end := v.ends[j]; end > start {
			out.Docs = docs[start:end:end]
		}
		start = v.ends[j]
	}
	v.pci.Nodes, v.pci.Roots = nodes, ids[:roots:roots]
}

// stats derives the full-prune-equivalent PruneStats from tracked state.
func (v *PrunedView) stats() PruneStats {
	return PruneStats{
		NodesBefore:       len(v.ci.Nodes),
		AttachmentsBefore: v.ciAttachments,
		NodesAfter:        len(v.pci.Nodes),
		AttachmentsAfter:  v.attachments,
		DocsRequested:     v.requested,
		MatchedNodes:      v.matchedNodes,
	}
}

// resized returns s with length n, reusing its storage and keeping whatever
// the reused elements held.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}
