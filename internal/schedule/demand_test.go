package schedule

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/xmldoc"
)

// checkInvariants verifies the DemandIndex's internal consistency: doc
// lists sorted, requester lists in seq order, remaining-byte sums exact,
// arrival extrema correct, zombie accounting balanced, plan deltas rolled
// back, and the FCFS order sorted whenever it claims to be.
func checkInvariants(t *testing.T, x *DemandIndex) {
	t.Helper()
	live, nz := 0, 0
	for id, rs := range x.reqs {
		if rs.dead {
			t.Fatalf("request %d tracked but dead", id)
		}
		if rs.id != id {
			t.Fatalf("request map key %d holds id %d", id, rs.id)
		}
		if rs.planDelta != 0 {
			t.Fatalf("request %d planDelta %d not rolled back", id, rs.planDelta)
		}
		if rs.zombie != (len(rs.docs) == 0) {
			t.Fatalf("request %d zombie=%v with %d docs", id, rs.zombie, len(rs.docs))
		}
		if rs.zombie {
			nz++
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
			found := false
			for _, r := range ds.reqs {
				if r == rs {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("doc %d requester list misses request %d", d, id)
			}
		}
		if sum != rs.remaining {
			t.Fatalf("request %d remaining %d, want %d", id, rs.remaining, sum)
		}
		live++
	}
	if nz != x.nzombie {
		t.Fatalf("nzombie %d, counted %d", x.nzombie, nz)
	}
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
		if len(ds.reqs) == 0 {
			t.Fatalf("doc %d has empty requester list", d)
		}
		min := ds.reqs[0].arrival
		for k, rs := range ds.reqs {
			if k > 0 && ds.reqs[k-1].seq >= rs.seq {
				t.Fatalf("doc %d requester list not in seq order", d)
			}
			if rs.arrival < min {
				min = rs.arrival
			}
			if rs.dead {
				t.Fatalf("doc %d lists dead request %d", d, rs.id)
			}
			if x.reqs[rs.id] != rs {
				t.Fatalf("doc %d lists untracked request %d", d, rs.id)
			}
			has := false
			for _, rd := range rs.docs {
				if rd == d {
					has = true
					break
				}
			}
			if !has {
				t.Fatalf("doc %d lists request %d that no longer demands it", d, rs.id)
			}
		}
		if min != ds.minArrival {
			t.Fatalf("doc %d minArrival %d, want %d", d, ds.minArrival, min)
		}
	}
	if ndocs != x.ndocs {
		t.Fatalf("ndocs %d, counted %d", x.ndocs, ndocs)
	}
	seen := 0
	for _, rs := range x.byArrival {
		if rs.dead {
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
// abandons, plan-predicted deliveries with client-side loss forcing
// reconciles, zombie expiry and periodic sharded rebuilds — asserting after
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
					if len(mirror) > 0 && rng.Intn(4) == 0 { // abandon
						i := rng.Intn(len(mirror))
						x.Remove(mirror[i].ID)
						mirror = append(mirror[:i], mirror[i+1:]...)
					}
					if step%9 == 5 { // cold-start / high-churn fallback path
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
						for _, d := range r.Docs {
							if _, ok := planned[d]; ok && rng.Float64() >= 0.15 {
								continue // delivered
							}
							kept = append(kept, d) // not planned, or lost
						}
						r.Docs = kept
						if len(r.Docs) == 0 {
							continue // completed: driver retires it
						}
						if n, _, ok := x.Peek(r.ID); !ok || n != len(r.Docs) {
							x.Apply(r, size) // lossy delivery: reconcile
						}
						liveMirror = append(liveMirror, r)
					}
					mirror = liveMirror
					x.ExpireZombies()
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
// reference, cycle after cycle of predicted deliveries, whether requests
// share most of their answers (dense: every request wants about half of a
// small collection, and a pick's growth goes to every candidate) or none
// (sparse: groups of requests with disjoint answers, and the growth goes to
// the pick's sharers found by its links). On the dense set the exact
// re-summations are counted: at least one per pick, and fewer per pick than
// the live documents. The rounding set is three documents where a bound
// without its float slack μ, or without the growth term, breaks a tie the
// wrong way.
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

	for _, tc := range []struct {
		name     string
		pending  []Request
		size     func(xmldoc.DocID) int
		capacity int
		counted  bool
	}{
		{"dense", dense, size, capacity, true},
		{"sparse", sparse, size, capacity, false},
		{"rounding", rounding, func(d xmldoc.DocID) int { return roundSizes[d] }, 2*a + b, false},
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
					}
				}
				mirror = rest
				x.ExpireZombies()
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
