package core

import (
	"time"

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
	// KeptChanged reports that the kept-node set changed, forcing a
	// structural rebuild of the PCI rather than an attachment patch.
	KeptChanged bool
	// DocsChanged counts documents whose requested status flipped.
	DocsChanged int
	// Reused reports that the delta left the PCI identical to the previous
	// cycle's, which was returned as-is. Patched reports that only the
	// attachment lists of affected nodes were re-filtered on the previous
	// structure.
	Reused, Patched bool
	// Stats are the full-prune-equivalent statistics for the returned PCI.
	Stats PruneStats
}

// viewQuery is one active query's contribution to the view: the CI nodes
// where it accepts, so removing the query is pure refcount arithmetic.
type viewQuery struct {
	query xpath.Path
	nodes []NodeID
}

// PrunedView maintains a PCI incrementally across broadcast cycles. A full
// Prune re-runs the whole query automaton over the CI every cycle; a view
// instead keeps per-node and per-document refcounts so that when the pending
// query set drifts by a few queries, only the delta is re-evaluated:
//
//   - removed queries subtract their recorded match nodes (no automaton walk);
//   - added queries run a small automaton of just themselves over the trie;
//   - refcount flips re-mark only the affected root-to-match paths
//     (kept-node counts) and re-bubble only the attachments of documents
//     whose requested status flipped.
//
// When the delta changes no kept node, the previous PCI is either returned
// unchanged or patched copy-on-write (affected attachment lists re-filtered
// from cached candidate sets); only a kept-set change rebuilds the output
// index. Update falls back to a full prune when the CI pointer changes or the
// churn threshold is exceeded. The produced PCI is defined to be node-,
// attachment- and packing-identical to Prune of the same query set.
//
// A PrunedView is not safe for concurrent use; the engine drives it from one
// goroutine. Returned indexes are immutable and remain valid after
// further updates.
type PrunedView struct {
	churn float64

	// Source-CI state, rebuilt whenever ci changes.
	ci            *Index
	ciAttachments int
	queries       map[string]*viewQuery
	matchCount    []int32 // per CI node: active queries accepting there
	keepRef       []int32 // per CI node: matched nodes in its subtree (self incl.)
	docRef        map[xmldoc.DocID]int32
	subtree       [][]xmldoc.DocID // lazy per-node subtree-doc cache
	matchedNodes  int

	// Output state.
	pci         *Index
	candidates  [][]xmldoc.DocID // per PCI node: unfiltered attachment candidates
	docNodes    map[xmldoc.DocID][]NodeID
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
	return &PrunedView{churn: churn}
}

// Update re-prunes the index to the given query set, reusing the previous
// cycle's work where the delta allows. ci must be the caller's current CI; a
// different pointer than the previous call's (the index was rebuilt after a
// collection change) resets the view with a full prune.
func (v *PrunedView) Update(ci *Index, queries []xpath.Path) (*Index, PruneDelta, error) {
	return v.UpdateUntil(ci, queries, time.Time{})
}

// UpdateUntil is Update under a cooperative deadline (the zero time means
// none), as in Index.PruneWithFilter. An update the deadline stops returns an
// error wrapping context.DeadlineExceeded and leaves the view empty, never
// half-updated: the next update starts over with a full prune.
func (v *PrunedView) UpdateUntil(ci *Index, queries []xpath.Path, until time.Time) (*Index, PruneDelta, error) {
	// Dedup the incoming set by canonical string, preserving first-seen
	// order (Prune is insensitive to duplicates and order; the dedup makes
	// the delta well defined).
	want := make(map[string]xpath.Path, len(queries))
	order := make([]string, 0, len(queries))
	deduped := make([]xpath.Path, 0, len(queries))
	for _, q := range queries {
		key := q.String()
		if _, dup := want[key]; dup {
			continue
		}
		want[key] = q
		order = append(order, key)
		deduped = append(deduped, q)
	}

	var added, removed []string
	for _, key := range order {
		if _, ok := v.queries[key]; !ok {
			added = append(added, key)
		}
	}
	for key := range v.queries {
		if _, ok := want[key]; !ok {
			removed = append(removed, key)
		}
	}
	delta := PruneDelta{Added: len(added), Removed: len(removed)}

	if ci != v.ci {
		reason := PruneReasonInitial
		if v.ci != nil {
			reason = PruneReasonIndexChanged
		}
		return v.rebuildAll(ci, deduped, delta, reason, until)
	}
	if len(added)+len(removed) == 0 {
		delta.Reused = true
		delta.Stats = v.stats()
		return v.pci, delta, nil
	}
	// Churn check: the union of old and new sets is old ∪ added.
	union := len(v.queries) + len(added)
	if float64(len(added)+len(removed)) > v.churn*float64(union) {
		return v.rebuildAll(ci, deduped, delta, PruneReasonChurn, until)
	}

	// Apply the delta to the per-node refcounts, recording each touched
	// node's pre-update count so a node removed by one query and re-added by
	// another nets out to no flip.
	touched := make(map[NodeID]int32)
	note := func(id NodeID) {
		if _, ok := touched[id]; !ok {
			touched[id] = v.matchCount[id]
		}
	}
	for _, key := range removed {
		vq := v.queries[key]
		for _, id := range vq.nodes {
			note(id)
			v.matchCount[id]--
		}
		delete(v.queries, key)
	}
	if len(added) > 0 {
		addQueries := make([]xpath.Path, len(added))
		for i, key := range added {
			addQueries[i] = want[key]
		}
		perQuery := make([][]NodeID, len(added))
		if !ci.forEachMatch(yfilter.New(addQueries), until, func(id NodeID, accepted []int) {
			note(id)
			v.matchCount[id] += int32(len(accepted))
			for _, qi := range accepted {
				perQuery[qi] = append(perQuery[qi], id)
			}
		}) {
			return v.abandon(delta)
		}
		for i, key := range added {
			v.queries[key] = &viewQuery{query: addQueries[i], nodes: perQuery[i]}
		}
	}

	// Propagate match flips into the kept-path and requested-doc refcounts,
	// again netting flips through pre-update snapshots.
	touchedDocs := make(map[xmldoc.DocID]int32)
	noteDoc := func(d xmldoc.DocID) {
		if _, ok := touchedDocs[d]; !ok {
			touchedDocs[d] = v.docRef[d]
		}
	}
	for id, before := range touched {
		was, is := before > 0, v.matchCount[id] > 0
		if was == is {
			continue
		}
		delta.FlippedMatches++
		var dir int32 = 1
		if !is {
			dir = -1
		}
		v.matchedNodes += int(dir)
		for cur := id; cur != NoNode; cur = ci.Nodes[cur].Parent {
			v.keepRef[cur] += dir
			if v.keepRef[cur] == 0 || (dir > 0 && v.keepRef[cur] == 1) {
				delta.KeptChanged = true
			}
		}
		for _, d := range v.subtreeDocs(id) {
			noteDoc(d)
			v.docRef[d] += dir
		}
	}
	changedDocs := make([]xmldoc.DocID, 0, len(touchedDocs))
	for d, before := range touchedDocs {
		if (before > 0) != (v.docRef[d] > 0) {
			changedDocs = append(changedDocs, d)
		}
		if v.docRef[d] == 0 {
			delete(v.docRef, d)
		}
	}
	delta.DocsChanged = len(changedDocs)

	switch {
	case delta.KeptChanged:
		if !v.rebuildOutput(until) {
			return v.abandon(delta)
		}
	case len(changedDocs) > 0:
		delta.Patched = v.patchDocs(changedDocs)
		delta.Reused = !delta.Patched
	default:
		delta.Reused = true
	}
	delta.Stats = v.stats()
	return v.pci, delta, nil
}

// rebuildAll resets the whole view against a (possibly new) CI and query set
// with one full prune pass, recording the per-query match lists the next
// delta needs.
func (v *PrunedView) rebuildAll(ci *Index, queries []xpath.Path, delta PruneDelta, reason string, until time.Time) (*Index, PruneDelta, error) {
	v.ci = ci
	v.ciAttachments = ci.NumAttachments()
	v.queries = make(map[string]*viewQuery, len(queries))
	v.matchCount = make([]int32, len(ci.Nodes))
	v.keepRef = make([]int32, len(ci.Nodes))
	v.docRef = make(map[xmldoc.DocID]int32)
	v.subtree = nil
	v.matchedNodes = 0

	perQuery := make([][]NodeID, len(queries))
	ok := ci.forEachMatch(yfilter.New(queries), until, func(id NodeID, accepted []int) {
		v.matchCount[id] = int32(len(accepted))
		for _, qi := range accepted {
			perQuery[qi] = append(perQuery[qi], id)
		}
		v.matchedNodes++
		for cur := id; cur != NoNode; cur = ci.Nodes[cur].Parent {
			v.keepRef[cur]++
		}
		for _, d := range v.subtreeDocs(id) {
			v.docRef[d]++
		}
	})
	for i, q := range queries {
		v.queries[q.String()] = &viewQuery{query: q, nodes: perQuery[i]}
	}
	if !ok || !v.rebuildOutput(until) {
		return v.abandon(delta)
	}
	delta.Full = true
	delta.Reason = reason
	delta.Stats = v.stats()
	return v.pci, delta, nil
}

// abandon empties a view whose update was stopped by its deadline, so the
// half-applied refcounts are never read.
func (v *PrunedView) abandon(delta PruneDelta) (*Index, PruneDelta, error) {
	*v = PrunedView{churn: v.churn}
	return nil, delta, errPruneDeadline
}

// rebuildOutput re-derives the PCI, its candidate attachment sets and the
// document → node inverted index from the current refcounts. It reports
// false when until expired first.
func (v *PrunedView) rebuildOutput(until time.Time) bool {
	v.candidates = v.candidates[:0]
	v.docNodes = make(map[xmldoc.DocID][]NodeID)
	pci := v.ci.rebuildPruned(
		func(id NodeID) bool { return v.keepRef[id] > 0 },
		func(d xmldoc.DocID) bool { return v.docRef[d] > 0 },
		func(id NodeID, candidates []xmldoc.DocID) {
			v.candidates = append(v.candidates, candidates)
			for _, d := range candidates {
				v.docNodes[d] = append(v.docNodes[d], id)
			}
		},
		until,
	)
	if pci == nil {
		return false
	}
	v.pci = pci
	v.attachments = pci.NumAttachments()
	return true
}

// patchDocs re-filters the attachment lists of the nodes whose candidates
// contain a document whose requested status flipped. The structure (kept set)
// is unchanged, so the previous PCI is cloned copy-on-write: fresh Nodes
// slice, fresh Docs for affected nodes, everything else shared — previously
// returned indexes stay valid. Returns false when no node was affected (the
// previous PCI was returned unchanged).
func (v *PrunedView) patchDocs(changedDocs []xmldoc.DocID) bool {
	affected := make(map[NodeID]struct{})
	for _, d := range changedDocs {
		for _, id := range v.docNodes[d] {
			affected[id] = struct{}{}
		}
	}
	if len(affected) == 0 {
		return false
	}
	nodes := append([]Node(nil), v.pci.Nodes...)
	for id := range affected {
		docs := filterDocs(v.candidates[id], func(d xmldoc.DocID) bool { return v.docRef[d] > 0 })
		v.attachments += len(docs) - len(nodes[id].Docs)
		nodes[id].Docs = docs
	}
	v.pci = &Index{Nodes: nodes, Roots: v.pci.Roots, Model: v.pci.Model}
	return true
}

// subtreeDocs returns the (cached) sorted subtree document union of a CI
// node. The CI is immutable for the view's lifetime, so entries never
// invalidate; a zero-length sentinel distinguishes "computed, empty" from
// "not yet computed".
func (v *PrunedView) subtreeDocs(id NodeID) []xmldoc.DocID {
	if v.subtree == nil {
		v.subtree = make([][]xmldoc.DocID, len(v.ci.Nodes))
	}
	if v.subtree[id] == nil {
		docs := v.ci.SubtreeDocs(id)
		if docs == nil {
			docs = []xmldoc.DocID{}
		}
		v.subtree[id] = docs
	}
	return v.subtree[id]
}

// stats derives the full-prune-equivalent PruneStats from tracked state.
func (v *PrunedView) stats() PruneStats {
	return PruneStats{
		NodesBefore:       v.ci.NumNodes(),
		AttachmentsBefore: v.ciAttachments,
		NodesAfter:        v.pci.NumNodes(),
		AttachmentsAfter:  v.attachments,
		DocsRequested:     len(v.docRef),
		MatchedNodes:      v.matchedNodes,
	}
}
