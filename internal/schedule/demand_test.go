package schedule

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/xmldoc"
)

// checkInvariants verifies the DemandIndex's internal consistency: doc
// lists sorted, requester lists in ID order in well-formed chunks, a
// cleared free list, remaining-byte sums and per-document weight sums exact,
// arrival extrema correct, an entry with no docs on no list, plan deltas
// rolled back, Len equal to the entries' summed weight, and the FCFS order
// sorted whenever it claims to be. It runs in time linear in the links and
// chunks, so the fuzzer can call it after every op.
func checkInvariants(t *testing.T, x *DemandIndex) {
	t.Helper()
	// listed counts the requester lists each request appears in. Each list
	// holds a request at most once (ID order is strict) and only for a
	// document it demands, so a count equal to its doc count means it is on
	// every list it should be.
	listed := make(map[*demandReq]int, len(x.reqs))
	ndocs := 0
	for i, ds := range x.docTab {
		if ds == nil {
			continue
		}
		ndocs++
		d := xmldoc.DocID(i)
		if ds.id != d {
			t.Fatalf("doc slot %d holds id %d", d, ds.id)
		}
		if x.docMem[d] != ds {
			t.Fatalf("doc %d state is not its docMem slot", d)
		}
		l := &ds.reqs
		if l.n == 0 {
			t.Fatalf("doc %d has empty requester list", d)
		}
		if want := (l.n + reqChunkLen - 1) / reqChunkLen; len(l.chunks) != want {
			t.Fatalf("doc %d: %d requesters in %d chunks, want %d", d, l.n, len(l.chunks), want)
		}
		if tail := l.chunks[len(l.chunks)-1][len(l.part(len(l.chunks)-1)):]; slices.ContainsFunc(tail, func(r *demandReq) bool { return r != nil }) {
			t.Fatalf("doc %d: requester slots past the list end are not cleared", d)
		}
		min := l.at(0).arrival
		count := int64(0)
		var prev *demandReq
		for c := range l.chunks {
			for _, rs := range l.part(c) {
				if rs == nil {
					t.Fatalf("doc %d requester list holds nil", d)
				}
				if prev != nil && prev.id >= rs.id {
					t.Fatalf("doc %d requester list not in ID order", d)
				}
				prev = rs
				if rs.arrival < min {
					min = rs.arrival
				}
				if rs.dead() {
					t.Fatalf("doc %d lists dead request %d", d, rs.id)
				}
				if x.reqs[rs.id] != rs {
					t.Fatalf("doc %d lists untracked request %d", d, rs.id)
				}
				if _, ok := slices.BinarySearch(rs.docs, d); !ok {
					t.Fatalf("doc %d lists request %d that no longer demands it", d, rs.id)
				}
				listed[rs]++
				count += int64(rs.weight)
			}
		}
		if count != ds.count {
			t.Fatalf("doc %d weight sum %d, want %d", d, ds.count, count)
		}
		if min != ds.minArrival {
			t.Fatalf("doc %d minArrival %d, want %d", d, ds.minArrival, min)
		}
	}
	if ndocs != x.ndocs {
		t.Fatalf("ndocs %d, counted %d", x.ndocs, ndocs)
	}
	for _, c := range x.free {
		if slices.ContainsFunc(c[:], func(r *demandReq) bool { return r != nil }) {
			t.Fatal("a chunk on the free list is not cleared")
		}
	}

	live, weight := 0, 0
	for id, rs := range x.reqs {
		if rs.weight < 1 {
			t.Fatalf("request %d weight %d", id, rs.weight)
		}
		weight += rs.weight
		if rs.dead() {
			t.Fatalf("request %d tracked but dead", id)
		}
		if rs.id != id {
			t.Fatalf("request map key %d holds id %d", id, rs.id)
		}
		if rs.planDelta != 0 {
			t.Fatalf("request %d planDelta %d not rolled back", id, rs.planDelta)
		}
		sum := 0
		for k, d := range rs.docs {
			if k > 0 && rs.docs[k-1] >= d {
				t.Fatalf("request %d docs not strictly ascending: %v", id, rs.docs)
			}
			ds := x.doc(d)
			if ds == nil {
				t.Fatalf("request %d demands doc %d missing from index", id, d)
			}
			sum += ds.size
		}
		if listed[rs] != len(rs.docs) {
			t.Fatalf("request %d is on %d requester lists, demands %d docs", id, listed[rs], len(rs.docs))
		}
		if sum != rs.remaining {
			t.Fatalf("request %d remaining %d, want %d", id, rs.remaining, sum)
		}
		if sum > 0 && rs.inv != float64(rs.weight)*(1/float64(sum)) || sum <= 0 && rs.inv != 0 {
			t.Fatalf("request %d inv %v, remaining %d", id, rs.inv, sum)
		}
		live++
	}
	if x.Len() != weight {
		t.Fatalf("Len %d, the entries stand for %d requests", x.Len(), weight)
	}
	seen := 0
	for _, rs := range x.byArrival {
		if rs.dead() {
			continue
		}
		seen++
		if x.reqs[rs.id] != rs {
			t.Fatalf("byArrival holds live entry %d not in request map", rs.id)
		}
	}
	if seen != live {
		t.Fatalf("byArrival holds %d live entries, request map %d", seen, live)
	}
	if !x.sortDirty {
		for i := 1; i < len(x.byArrival); i++ {
			a, b := x.byArrival[i-1], x.byArrival[i]
			if b.arrival < a.arrival || (b.arrival == a.arrival && b.id < a.id) {
				t.Fatalf("byArrival claims sorted but (%d,%d) precedes (%d,%d)",
					a.arrival, a.id, b.arrival, b.id)
			}
		}
	}
}

func randomSortedDocs(rng *rand.Rand, nDocs, k int) []xmldoc.DocID {
	picked := make(map[xmldoc.DocID]struct{}, k)
	for len(picked) < k {
		picked[xmldoc.DocID(rng.Intn(nDocs))] = struct{}{}
	}
	docs := make([]xmldoc.DocID, 0, k)
	for d := range picked {
		docs = append(docs, d)
	}
	for i := 1; i < len(docs); i++ {
		for j := i; j > 0 && docs[j-1] > docs[j]; j-- {
			docs[j-1], docs[j] = docs[j], docs[j-1]
		}
	}
	return docs
}

// TestIncrementalMatchesReferenceUnderChurn drives a DemandIndex and a
// mirror pending slice through randomized multi-cycle churn — arrivals,
// removals, each plan's deliveries with client-side loss re-applied as a
// ledger does, retirements and periodic sharded rebuilds — asserting after
// every cycle that PlanIndexed equals the reference PlanCycle oracle
// exactly, for all four policies.
func TestIncrementalMatchesReferenceUnderChurn(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			sched, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				const nDocs, capacity = 50, 5000
				sizes := make([]int, nDocs)
				for d := range sizes {
					sizes[d] = 300 + rng.Intn(4200)
				}
				// Scripted requests beside the random ones: the last two
				// documents are only ever requested together, so their
				// scores tie exactly and the lower ID goes first; a burst
				// for the oversized document makes it a plan's first and
				// only pick; and a burst for document 0 alone completes
				// inside the plan that picks it, so those terms fall to 0.
				const oversized, tieA, tieB = nDocs - 3, nDocs - 2, nDocs - 1
				sizes[oversized] = capacity + 1000
				size := func(d xmldoc.DocID) int { return sizes[d] }

				x := NewDemandIndex()
				var mirror []Request
				nextID := int64(0)
				now := int64(0)
				add := func(docs ...xmldoc.DocID) {
					r := Request{ID: nextID, Arrival: now - int64(rng.Intn(200)), Docs: docs}
					nextID++
					mirror = append(mirror, r)
					x.Apply(r, size)
				}
				oversizedAlone := 0
				for step := 0; step < 45; step++ {
					now += int64(400 + rng.Intn(600))
					for k := 1 + rng.Intn(5); k > 0; k-- {
						add(randomSortedDocs(rng, oversized+1, 1+rng.Intn(4))...)
					}
					switch step % 15 {
					case 3:
						add(tieA, tieB)
						add(tieA, tieB)
					case 8:
						for k := 0; k < 40; k++ {
							add(oversized)
						}
					case 13:
						for k := 0; k < 10; k++ {
							add(0)
						}
					}
					if len(mirror) > 0 && rng.Intn(4) == 0 { // remove
						i := rng.Intn(len(mirror))
						x.Remove(mirror[i].ID)
						mirror = append(mirror[:i], mirror[i+1:]...)
					}
					if step%9 == 5 { // a rebuild must leave the index as the applies did
						x.Rebuild(mirror, size, 1+rng.Intn(4))
					}
					checkInvariants(t, x)
					if len(mirror) == 0 {
						continue
					}

					want := sched.PlanCycle(mirror, size, capacity, now)
					got := sched.PlanIndexed(x, capacity, now)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("seed %d step %d: PlanIndexed = %v, reference = %v",
							seed, step, got, want)
					}
					if len(got) == 1 && got[0] == oversized {
						oversizedAlone++
					}
					checkInvariants(t, x)

					planned := make(map[xmldoc.DocID]struct{}, len(got))
					for _, d := range got {
						planned[d] = struct{}{}
						x.DeliverDoc(d)
					}
					liveMirror := mirror[:0]
					for i := range mirror {
						r := mirror[i]
						kept := r.Docs[:0]
						lost := false
						for _, d := range r.Docs {
							_, ok := planned[d]
							if ok && rng.Float64() >= 0.15 {
								continue // delivered
							}
							lost = lost || ok
							kept = append(kept, d) // not planned, or lost
						}
						r.Docs = kept
						if len(r.Docs) == 0 {
							x.Remove(r.ID) // completed: the driver retires it
							continue
						}
						if lost {
							x.Apply(r, size) // lossy delivery: reconcile
						}
						liveMirror = append(liveMirror, r)
					}
					mirror = liveMirror
					checkInvariants(t, x)
				}
				if name == "leelo" && oversizedAlone == 0 {
					t.Fatalf("seed %d: the oversized document never made a plan alone", seed)
				}
			}
		})
	}
}

// TestIncrementalContractsAtScale quick-checks the scheduler contracts —
// capacity bound, no duplicates, demanded-documents-only, oversized rule —
// and exact reference equality on a 10k-request pending set, through a
// sharded rebuild plus incremental churn rounds.
func TestIncrementalContractsAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(7))
	const nDocs, nReq, capacity = 400, 10_000, 120_000
	sizes := make([]int, nDocs)
	for d := range sizes {
		sizes[d] = 2000 + rng.Intn(18000)
	}
	sizes[nDocs-1] = capacity * 2
	size := func(d xmldoc.DocID) int { return sizes[d] }

	pending := make([]Request, nReq)
	for i := range pending {
		pending[i] = Request{
			ID:      int64(i),
			Arrival: int64(i / 16),
			Docs:    randomSortedDocs(rng, nDocs, 1+rng.Intn(4)),
		}
	}
	nextID := int64(nReq)

	x := NewDemandIndex()
	x.Rebuild(pending, size, 8)

	verify := func(round int) {
		t.Helper()
		now := int64(nReq/16 + round)
		demanded := make(map[xmldoc.DocID]struct{})
		for i := range pending {
			for _, d := range pending[i].Docs {
				demanded[d] = struct{}{}
			}
		}
		for _, name := range Names() {
			sched, _ := New(name)
			plan := sched.PlanIndexed(x, capacity, now)
			seen := make(map[xmldoc.DocID]struct{}, len(plan))
			used := 0
			for _, d := range plan {
				if _, dup := seen[d]; dup {
					t.Fatalf("round %d %s: duplicate doc %d", round, name, d)
				}
				seen[d] = struct{}{}
				if _, ok := demanded[d]; !ok {
					t.Fatalf("round %d %s: undemanded doc %d", round, name, d)
				}
				used += size(d)
			}
			if used > capacity && !(len(plan) == 1 && size(plan[0]) > capacity) {
				t.Fatalf("round %d %s: %d bytes exceed capacity %d", round, name, used, capacity)
			}
			if want := sched.PlanCycle(pending, size, capacity, now); !reflect.DeepEqual(want, plan) {
				t.Fatalf("round %d %s: PlanIndexed diverges from reference", round, name)
			}
		}
	}

	verify(0)
	for round := 1; round <= 3; round++ {
		for k := 0; k < 500; k++ { // ~5% churn: drop the oldest, add a new
			x.Remove(pending[0].ID)
			pending = pending[1:]
			r := Request{
				ID:      nextID,
				Arrival: int64(nReq/16 + round),
				Docs:    randomSortedDocs(rng, nDocs, 1+rng.Intn(4)),
			}
			nextID++
			pending = append(pending, r)
			x.Apply(r, size)
		}
		verify(round)
	}
	checkInvariants(t, x)
}

// TestLeeLoSharerPaths: planLeeLo re-sums a document's score only while a
// bound on it can still win the pick, and must plan exactly as the
// reference, cycle after cycle of deliveries and retirements, whether requests
// share most of their answers (dense: every request wants about half of a
// small collection, and a pick's growth goes to every candidate) or none
// (sparse: groups of requests with disjoint answers, and the growth goes to
// the pick's sharers found by its links). On the dense set the exact
// re-summations are counted: at least one per pick, and fewer per pick than
// the live documents. The rounding set is three documents where a bound
// without its float slack μ, or without the growth term, breaks a tie the
// wrong way. The tie set is one where the whole table takes a pick's growth
// and rounding then ties the bounds of two documents whose scores differ, so
// the pick heap's order between them turns over (see tableTieCase).
func TestLeeLoSharerPaths(t *testing.T) {
	const nDocs, capacity = 40, 6000
	rng := rand.New(rand.NewSource(11))
	sizes := make([]int, nDocs)
	for d := range sizes {
		sizes[d] = 300 + rng.Intn(1500)
	}
	size := func(d xmldoc.DocID) int { return sizes[d] }

	var dense, sparse []Request
	for i := 0; i < 60; i++ {
		dense = append(dense, Request{ID: int64(i), Arrival: int64(i), Docs: randomSortedDocs(rng, nDocs, 15+rng.Intn(10))})
	}
	for i := 0; i < 3*nDocs/2; i++ {
		g := xmldoc.DocID(i / 3 * 2) // three requests per two-document answer
		sparse = append(sparse, Request{ID: int64(i), Arrival: int64(i), Docs: []xmldoc.DocID{g, g + 1}})
	}

	// Rounding: request 0 wants documents {0, 1}, requests 1–4 want 1 alone
	// and request 5 wants 2 alone; documents 0 and 2 are a bytes, 1 is b.
	// Document 1 goes first, then 0 and 2 tie at 1/a and 0 wins on ID. The
	// sizes are the first for which 0's bound without slack, 1/(a+b) plus
	// the rounded rise to 1/a, rounds below 1/a.
	a, b := 0, 0
	for try := 1000; a == 0 && try < 2000; try++ {
		lo, hi := 1/float64(3*try+1), 1/float64(try) // b = 2a+1: the rise is a rounded difference
		if lo+(hi-lo) < hi {
			a, b = try, 2*try+1
		}
	}
	if a == 0 {
		t.Fatal("no sizes make the bound without slack round below the tie")
	}
	roundSizes := []int{a, b, a}
	rounding := []Request{{ID: 0, Docs: []xmldoc.DocID{0, 1}}}
	for id := int64(1); id <= 4; id++ {
		rounding = append(rounding, Request{ID: id, Docs: []xmldoc.DocID{1}})
	}
	rounding = append(rounding, Request{ID: 5, Docs: []xmldoc.DocID{2}})

	for _, tc := range []sharerCase{
		{"dense", dense, size, capacity, true},
		{"sparse", sparse, size, capacity, false},
		{"rounding", rounding, func(d xmldoc.DocID) int { return roundSizes[d] }, 2*a + b, false},
		tableTieCase(t),
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := NewDemandIndex()
			var mirror []Request
			for _, r := range tc.pending {
				r.Docs = slices.Clone(r.Docs)
				mirror = append(mirror, r)
				if err := x.Apply(r, tc.size); err != nil {
					t.Fatal(err)
				}
			}
			resums, picks := 0, 0
			for cycle := 0; len(mirror) > 0; cycle++ {
				now := int64(100 + cycle)
				want := LeeLo{}.PlanCycle(mirror, tc.size, tc.capacity, now)
				live, before := x.NumDocs(), x.resums
				if got := (LeeLo{}).PlanIndexed(x, tc.capacity, now); !reflect.DeepEqual(got, want) {
					t.Fatalf("cycle %d: PlanIndexed = %v, reference = %v", cycle, got, want)
				}
				n := x.resums - before
				if tc.counted && n >= len(want)*live {
					t.Fatalf("cycle %d: %d re-summations for %d picks of %d live documents", cycle, n, len(want), live)
				}
				resums += n
				picks += len(want)
				for _, d := range want {
					x.DeliverDoc(d)
				}
				rest := mirror[:0]
				for _, r := range mirror {
					r.Docs = slices.DeleteFunc(r.Docs, func(d xmldoc.DocID) bool { return slices.Contains(want, d) })
					if len(r.Docs) > 0 {
						rest = append(rest, r)
					} else {
						x.Remove(r.ID)
					}
				}
				mirror = rest
				checkInvariants(t, x)
			}
			if tc.counted {
				t.Logf("%d exact re-summations over %d picks", resums, picks)
				if resums < picks {
					t.Fatalf("%d exact re-summations over %d picks: fewer than one per pick", resums, picks)
				}
			}
		})
	}
}

type sharerCase struct {
	name     string
	pending  []Request
	size     func(xmldoc.DocID) int
	capacity int
	counted  bool
}

// tableTieCase builds TestLeeLoSharerPaths' tie set. Thirty requests want
// documents P = 0 and Q = 3, so P goes first, its links outnumber the seven
// live documents and every candidate takes its growth g; Q (4·P's size) then
// no longer fits. Documents A = 2 and B = 1 have three requesters each with
// the same three terms, A's summed in the order 1/(a+d₁), 1/(a+d₂), 1/(a+d₃)
// and B's in the reverse order, over documents D₁..D₃ = 4..6. The sizes are
// the first for which A's float score exceeds B's while their bounds after g
// round to the same key: the heap now ranks B first on its ID, and A must
// still be the second pick.
func tableTieCase(t *testing.T) sharerCase {
	const p, a, nP = 1000, 1000, 30
	const docP, docB, docA, docQ = 0, 1, 2, 3
	var pending []Request
	for id := int64(0); id < nP; id++ {
		pending = append(pending, Request{ID: id, Docs: []xmldoc.DocID{docP, docQ}})
	}
	for i, d := range []xmldoc.DocID{4, 5, 6} {
		pending = append(pending, Request{ID: int64(nP + i), Docs: []xmldoc.DocID{docA, d}})
	}
	for i, d := range []xmldoc.DocID{6, 5, 4} {
		pending = append(pending, Request{ID: int64(nP + 3 + i), Docs: []xmldoc.DocID{docB, d}})
	}
	rise := 1/float64(4*p) - 1/float64(5*p) // rem = p + 4p, less the pick's p
	g := 0.0
	for i := 0; i < nP; i++ {
		g += rise
	}
	onePlusMu := 1 + leeLoSlack(len(pending)+7)
	for d1 := 900; d1 < 1000; d1++ {
		for d3 := d1 + 1; d3 < 1000; d3++ {
			const d2 = 1000
			sA := 1/float64(a+d1) + 1/float64(a+d2) + 1/float64(a+d3)
			sB := 1/float64(a+d3) + 1/float64(a+d2) + 1/float64(a+d1)
			if sA > sB && (sA+g)*onePlusMu == (sB+g)*onePlusMu {
				sizes := []int{p, a, a, 4 * p, d1, d2, d3}
				return sharerCase{"tie", pending, func(d xmldoc.DocID) int { return sizes[d] }, 3 * p, false}
			}
		}
	}
	t.Fatal("no sizes make the table growth tie two bounds of different scores")
	return sharerCase{}
}

// TestReqListChunks drives one requester list across several chunks through
// appends, inserts and removals at every position against a plain slice,
// checking after each op the order, the chunk count, the cleared slots past
// the end and the cleared free list. A second rise to the same length takes
// every chunk and directory slot from storage the first one left behind.
func TestReqListChunks(t *testing.T) {
	x := NewDemandIndex()
	rng := rand.New(rand.NewSource(3))
	pool := make([]demandReq, 8*reqChunkLen)
	var l reqList
	var model []*demandReq
	check := func(op string) {
		t.Helper()
		if l.n != len(model) {
			t.Fatalf("%s: list holds %d, model %d", op, l.n, len(model))
		}
		if want := (l.n + reqChunkLen - 1) / reqChunkLen; len(l.chunks) != want {
			t.Fatalf("%s: %d requesters in %d chunks, want %d", op, l.n, len(l.chunks), want)
		}
		for i, rs := range model {
			if l.at(i) != rs {
				t.Fatalf("%s: position %d differs from the model", op, i)
			}
		}
		if c := len(l.chunks) - 1; c >= 0 && slices.ContainsFunc(l.chunks[c][len(l.part(c)):], func(r *demandReq) bool { return r != nil }) {
			t.Fatalf("%s: slots past the list end are not cleared", op)
		}
		for _, c := range x.free {
			if slices.ContainsFunc(c[:], func(r *demandReq) bool { return r != nil }) {
				t.Fatalf("%s: a chunk on the free list is not cleared", op)
			}
		}
	}
	rise := func(to int) {
		for len(model) < to {
			rs := &pool[rng.Intn(len(pool))]
			if i := rng.Intn(len(model) + 1); i == len(model) {
				x.push(&l, rs)
				model = append(model, rs)
			} else {
				x.insertAt(&l, i, rs)
				model = slices.Insert(model, i, rs)
			}
			check("insert")
		}
	}
	fall := func(to int) {
		for len(model) > to {
			i := rng.Intn(len(model))
			x.removeAt(&l, i)
			model = slices.Delete(model, i, i+1)
			check("remove")
		}
	}
	const peak = 3*reqChunkLen + reqChunkLen/2
	rise(peak)
	fall(reqChunkLen / 3)
	warm := x.listAllocs
	rise(peak)
	if x.listAllocs != warm {
		t.Errorf("second rise to %d requesters made %d list allocations", peak, x.listAllocs-warm)
	}
	fall(0)
	if len(l.chunks) != 0 || len(x.free) != (peak+reqChunkLen-1)/reqChunkLen {
		t.Fatalf("emptied list keeps %d chunks, free list %d", len(l.chunks), len(x.free))
	}
	rise(2 * reqChunkLen)
	x.release(&l)
	model = model[:0]
	check("release")
}

// TestListStorageRecycled pins the requester lists' storage to the index:
// driver-shaped cycles over a pending set topped up to a fixed size —
// arrivals appended, a LeeLo plan, its deliveries and the driver's
// retirements — replayed on an index that has run them
// once take every chunk and directory from storage it already holds, and a
// Rebuild of the same pending set allocates none either.
func TestListStorageRecycled(t *testing.T) {
	const nDocs, nPending, capacity, cycles = 60, 3000, 40_000, 60
	rng := rand.New(rand.NewSource(5))
	sizes := make([]int, nDocs)
	for d := range sizes {
		sizes[d] = 2000 + rng.Intn(6000)
	}
	size := func(d xmldoc.DocID) int { return sizes[d] }
	x := NewDemandIndex()
	var pending []Request
	run := func() {
		rng := rand.New(rand.NewSource(6))
		pending = pending[:0]
		nextID := int64(0)
		for c := int64(0); c < cycles; c++ {
			for len(pending) < nPending {
				r := Request{ID: nextID, Arrival: c, Docs: randomSortedDocs(rng, nDocs, 1+rng.Intn(3))}
				nextID++
				pending = append(pending, r)
				if err := x.Apply(r, size); err != nil {
					t.Fatal(err)
				}
			}
			plan := LeeLo{}.PlanIndexed(x, capacity, c)
			for _, d := range plan {
				x.DeliverDoc(d)
			}
			rest := pending[:0]
			for _, r := range pending {
				r.Docs = slices.DeleteFunc(r.Docs, func(d xmldoc.DocID) bool { return slices.Contains(plan, d) })
				if len(r.Docs) > 0 {
					rest = append(rest, r)
				} else {
					x.Remove(r.ID)
				}
			}
			pending = rest
		}
		checkInvariants(t, x)
	}
	run()
	warm := x.listAllocs
	if err := x.Rebuild(nil, size, 1); err != nil { // every list back on the free list
		t.Fatal(err)
	}
	run()
	if x.listAllocs != warm {
		t.Errorf("replayed cycles made %d requester-list allocations", x.listAllocs-warm)
	}
	for i := 0; i < 3; i++ {
		if err := x.Rebuild(pending, size, 1); err != nil {
			t.Fatal(err)
		}
	}
	if x.listAllocs != warm {
		t.Errorf("rebuilding the same pending set made %d requester-list allocations", x.listAllocs-warm)
	}
	checkInvariants(t, x)
}
