// Package schedule implements the on-demand broadcast schedulers that decide
// which result documents fill each fixed-length cycle. The paper adopts the
// multi-data-item allocation of Lee & Lo (MONET 2003) [8]; that policy is the
// default here, alongside classic on-demand baselines (FCFS, MRF, RxW) used
// by the repository's ablation experiments to show the index comparison is
// scheduler-robust. Every policy has two forms defined to return the same
// plan: PlanCycle, the reference over one cycle's pending slice, and
// PlanIndexed over a DemandIndex maintained across cycles, which is the one
// the engine runs.
package schedule

import (
	"fmt"
	"sort"

	"repro/internal/xmldoc"
)

// Request is one pending query at the server, reduced to what scheduling
// needs: its identity, arrival time (in broadcast bytes) and the result
// documents the client still lacks. One Request may stand for several
// requests that lack the same documents (Weight): the requests of a class,
// keyed by the ID and Arrival of the one that sorts first by (Arrival, ID).
type Request struct {
	// ID uniquely identifies the request.
	ID int64
	// Arrival is the byte-time the request reached the server.
	Arrival int64
	// Docs are the still-missing result documents, sorted ascending without
	// duplicates. Schedulers only read them during the call, so a driver may
	// lend its own slice (see Validate).
	Docs []xmldoc.DocID
	// Weight is the number of requests the Request stands for; 0 means 1.
	// FCFS plans a weighted Request as the same number of requests with its
	// Docs that sort no earlier would plan, and MRF and RxW count its
	// weight; LeeLo's term for it is float64(Weight)·(1/remaining), which is
	// one rounding away from that many terms 1/remaining.
	Weight int
}

// weight is the number of requests r stands for.
func (r Request) weight() int { return max(r.Weight, 1) }

// Validate checks the Docs contract and that Weight is not negative. Plans
// depend on it — FCFS packs a request's documents in Docs order, and the
// demand index merges Docs against its own sorted copy — so the code that
// reads Docs rejects a violation instead of planning from it.
func (r Request) Validate() error {
	if r.Weight < 0 {
		return fmt.Errorf("schedule: request %d: negative weight %d", r.ID, r.Weight)
	}
	for i := 1; i < len(r.Docs); i++ {
		if r.Docs[i-1] >= r.Docs[i] {
			return fmt.Errorf("schedule: request %d: documents not sorted and distinct (%d before %d)", r.ID, r.Docs[i-1], r.Docs[i])
		}
	}
	return nil
}

// Scheduler plans the document content of broadcast cycles.
type Scheduler interface {
	// Name identifies the policy.
	Name() string
	// PlanCycle chooses the documents of the next cycle: at most capacity
	// bytes (by size), drawn from the union of pending requests' documents,
	// without duplicates, in broadcast order. If the single best document
	// exceeds the capacity on an otherwise empty plan it is scheduled
	// alone, so oversized documents cannot starve.
	PlanCycle(pending []Request, size func(xmldoc.DocID) int, capacity int, now int64) []xmldoc.DocID
	// PlanIndexed chooses the next cycle's documents from a maintained
	// DemandIndex instead of a per-cycle pending slice. The plan is defined
	// to be identical to PlanCycle over the equivalent pending set (see the
	// DemandIndex contracts): PlanCycle is the reference, PlanIndexed is what
	// the engine runs.
	PlanIndexed(x *DemandIndex, capacity int, now int64) []xmldoc.DocID
}

// New returns a scheduler by name: "leelo" (default policy of the paper's
// evaluation), "fcfs", "mrf" or "rxw".
func New(name string) (Scheduler, error) {
	switch name {
	case "leelo":
		return LeeLo{}, nil
	case "fcfs":
		return FCFS{}, nil
	case "mrf":
		return MRF{}, nil
	case "rxw":
		return RxW{}, nil
	default:
		return nil, fmt.Errorf("schedule: unknown scheduler %q (have %v)", name, Names())
	}
}

// Names lists the available scheduler names.
func Names() []string { return []string{"leelo", "fcfs", "mrf", "rxw"} }

// demand aggregates, per document, which pending requests need it and how
// many requests they stand for.
type demand struct {
	docs  []xmldoc.DocID
	need  map[xmldoc.DocID][]int // doc -> indexes into pending
	count map[xmldoc.DocID]int64 // doc -> Σ weight over need
}

func buildDemand(pending []Request) demand {
	d := demand{need: make(map[xmldoc.DocID][]int), count: make(map[xmldoc.DocID]int64)}
	for ri := range pending {
		for _, doc := range pending[ri].Docs {
			if _, ok := d.need[doc]; !ok {
				d.docs = append(d.docs, doc)
			}
			d.need[doc] = append(d.need[doc], ri)
			d.count[doc] += int64(pending[ri].weight())
		}
	}
	sort.Slice(d.docs, func(i, j int) bool { return d.docs[i] < d.docs[j] })
	return d
}

// fill appends docs in the given priority order while they fit, honouring
// the oversized-document rule.
func fill(order []xmldoc.DocID, size func(xmldoc.DocID) int, capacity int) []xmldoc.DocID {
	var out []xmldoc.DocID
	used := 0
	for _, doc := range order {
		s := size(doc)
		if used+s > capacity {
			if used == 0 && s > capacity {
				return []xmldoc.DocID{doc}
			}
			continue
		}
		out = append(out, doc)
		used += s
	}
	return out
}

// FCFS serves requests in arrival order, packing each request's remaining
// documents before moving to the next.
type FCFS struct{}

// Name implements Scheduler.
func (FCFS) Name() string { return "fcfs" }

// PlanCycle implements Scheduler.
func (FCFS) PlanCycle(pending []Request, size func(xmldoc.DocID) int, capacity int, _ int64) []xmldoc.DocID {
	byArrival := make([]int, len(pending))
	for i := range byArrival {
		byArrival[i] = i
	}
	sort.SliceStable(byArrival, func(i, j int) bool {
		a, b := pending[byArrival[i]], pending[byArrival[j]]
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	})
	var order []xmldoc.DocID
	seen := make(map[xmldoc.DocID]struct{})
	for _, ri := range byArrival {
		for _, doc := range pending[ri].Docs {
			if _, ok := seen[doc]; !ok {
				seen[doc] = struct{}{}
				order = append(order, doc)
			}
		}
	}
	return fill(order, size, capacity)
}

// MRF (most requested first) broadcasts the documents demanded by the most
// pending requests, counting a weighted request as its weight.
type MRF struct{}

// Name implements Scheduler.
func (MRF) Name() string { return "mrf" }

// PlanCycle implements Scheduler.
func (MRF) PlanCycle(pending []Request, size func(xmldoc.DocID) int, capacity int, _ int64) []xmldoc.DocID {
	d := buildDemand(pending)
	order := append([]xmldoc.DocID(nil), d.docs...)
	sort.SliceStable(order, func(i, j int) bool {
		ci, cj := d.count[order[i]], d.count[order[j]]
		if ci != cj {
			return ci > cj
		}
		return order[i] < order[j]
	})
	return fill(order, size, capacity)
}

// RxW scores each document by (number of requests) × (wait of the oldest
// requester), the classic on-demand broadcast heuristic.
type RxW struct{}

// Name implements Scheduler.
func (RxW) Name() string { return "rxw" }

// PlanCycle implements Scheduler.
func (RxW) PlanCycle(pending []Request, size func(xmldoc.DocID) int, capacity int, now int64) []xmldoc.DocID {
	d := buildDemand(pending)
	score := make(map[xmldoc.DocID]int64, len(d.docs))
	for _, doc := range d.docs {
		oldest := int64(0)
		for _, ri := range d.need[doc] {
			if w := now - pending[ri].Arrival; w > oldest {
				oldest = w
			}
		}
		if oldest < 1 {
			oldest = 1 // fresh requests still compete on R
		}
		score[doc] = d.count[doc] * oldest
	}
	order := append([]xmldoc.DocID(nil), d.docs...)
	sort.SliceStable(order, func(i, j int) bool {
		if score[order[i]] != score[order[j]] {
			return score[order[i]] > score[order[j]]
		}
		return order[i] < order[j]
	})
	return fill(order, size, capacity)
}

// LeeLo is the default policy, after Lee & Lo's broadcast data allocation
// for multi-item queries [8]: a query is only satisfied when its whole
// result set has been received, so the scheduler favours documents that
// bring popular, nearly-complete queries to completion. Each candidate
// document is scored by Σ over the requests needing it of
// weight · (1 / remaining result bytes of that request), summed in pending
// order, and documents are chosen greedily, rescoring as requests shrink
// within the cycle plan.
type LeeLo struct{}

// Name implements Scheduler.
func (LeeLo) Name() string { return "leelo" }

// PlanCycle implements Scheduler.
func (LeeLo) PlanCycle(pending []Request, size func(xmldoc.DocID) int, capacity int, _ int64) []xmldoc.DocID {
	d := buildDemand(pending)
	remaining := make([]int, len(pending)) // remaining result bytes per request
	for ri := range pending {
		for _, doc := range pending[ri].Docs {
			remaining[ri] += size(doc)
		}
	}
	scheduled := make(map[xmldoc.DocID]struct{})
	var out []xmldoc.DocID
	used := 0
	for {
		best := xmldoc.DocID(0)
		bestScore := -1.0
		found := false
		for _, doc := range d.docs {
			if _, ok := scheduled[doc]; ok {
				continue
			}
			s := size(doc)
			if used+s > capacity && !(used == 0 && s > capacity) {
				continue
			}
			score := 0.0
			for _, ri := range d.need[doc] {
				if remaining[ri] > 0 {
					score += float64(pending[ri].weight()) * (1 / float64(remaining[ri]))
				}
			}
			if score > bestScore {
				bestScore, best, found = score, doc, true
			}
		}
		if !found {
			break
		}
		scheduled[best] = struct{}{}
		out = append(out, best)
		used += size(best)
		for _, ri := range d.need[best] {
			remaining[ri] -= size(best)
		}
		if used >= capacity {
			break
		}
	}
	return out
}
