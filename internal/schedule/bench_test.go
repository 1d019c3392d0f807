package schedule

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/xmldoc"
)

func benchPending(n int) ([]Request, func(xmldoc.DocID) int) {
	r := rand.New(rand.NewSource(1))
	sizes := make(map[xmldoc.DocID]int, 100)
	for i := 1; i <= 100; i++ {
		sizes[xmldoc.DocID(i)] = 5000 + r.Intn(15000)
	}
	pending := make([]Request, n)
	for i := range pending {
		docs := make([]xmldoc.DocID, 1+r.Intn(20))
		for j := range docs {
			docs[j] = xmldoc.DocID(1 + r.Intn(100))
		}
		pending[i] = Request{ID: int64(i), Arrival: int64(i * 10), Docs: docs}
	}
	return pending, func(d xmldoc.DocID) int { return sizes[d] }
}

func benchScheduler(b *testing.B, s Scheduler) {
	pending, size := benchPending(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PlanCycle(pending, size, 100_000, int64(i))
	}
}

// benchChurnFixture builds the incremental-scheduling workload: a 10k
// pending set over a wide document universe of nDocs (sparse requester
// sharing, the regime the demand index targets) with ~5% of requests swapped
// per cycle.
func benchChurnFixture(nDocs int) ([]Request, func(xmldoc.DocID) int, *rand.Rand) {
	r := rand.New(rand.NewSource(2))
	sizes := make([]int, nDocs)
	for d := range sizes {
		sizes[d] = 2000 + r.Intn(18000)
	}
	pending := make([]Request, 10_000)
	for i := range pending {
		pending[i] = Request{
			ID:      int64(i),
			Arrival: int64(i / 16),
			Docs:    randomSortedDocs(r, nDocs, 1+r.Intn(4)),
		}
	}
	return pending, func(d xmldoc.DocID) int { return sizes[d] }, r
}

const benchChurnSwap = 500 // of 10k pending: 5% churn per cycle

// BenchmarkScheduleIncremental compares one cycle of LeeLo planning under
// 5% pending-set churn: the full per-cycle rebuild the reference oracle
// performs versus delta maintenance of a persistent DemandIndex (target
// ≥5×), over 4 000 documents and, sparser still, over 10 000. bench/
// replays the 4 000-document pair at the benchmark's own scale as
// schedule.plan_full_us / schedule.plan_indexed_us. The paper pair is a
// ledger's cycle on paper_sim's shape (see benchPaperCycles), with one entry
// per request and with one weighted entry per class.
func BenchmarkScheduleIncremental(b *testing.B) {
	for _, v := range []struct {
		suffix string
		nDocs  int
	}{{"", 4000}, {"-10k-docs", 10_000}} {
		b.Run("full"+v.suffix, func(b *testing.B) {
			pending, size, r := benchChurnFixture(v.nDocs)
			nextID := int64(len(pending))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < benchChurnSwap; k++ {
					pending = pending[1:]
					pending = append(pending, Request{
						ID:      nextID,
						Arrival: int64(i),
						Docs:    randomSortedDocs(r, v.nDocs, 1+r.Intn(4)),
					})
					nextID++
				}
				LeeLo{}.PlanCycle(pending, size, 400_000, int64(i))
			}
		})
		b.Run("incremental"+v.suffix, func(b *testing.B) {
			pending, size, r := benchChurnFixture(v.nDocs)
			x := NewDemandIndex()
			x.Rebuild(pending, size, 8)
			nextID := int64(len(pending))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < benchChurnSwap; k++ {
					x.Remove(pending[0].ID)
					pending = pending[1:]
					nr := Request{
						ID:      nextID,
						Arrival: int64(i),
						Docs:    randomSortedDocs(r, v.nDocs, 1+r.Intn(4)),
					}
					nextID++
					pending = append(pending, nr)
					x.Apply(nr, size)
				}
				LeeLo{}.PlanIndexed(x, 400_000, int64(i))
			}
		})
	}
	for _, v := range []struct {
		name     string
		weighted bool
	}{{"paper-requests", false}, {"paper-classes", true}} {
		b.Run(v.name, func(b *testing.B) { benchPaperCycles(b, v.weighted) })
	}
}

// The paper pair's shape: paper_sim's 100 documents of 2–20 KB and its 82
// distinct queries, here with answers of 60–100 documents, and cycles of
// 100 KB that each admit paperCycleReqs requests for uniform queries. A
// request is served in ≈ 10 cycles, as on paper_sim, so ≈ 10 000 requests in
// ≈ 820 classes (a query's requests of one cycle) are pending.
const (
	paperQueries   = 82
	paperCycleReqs = 1_000
)

// benchPaperCycles runs a ledger's cycle on the demand index per op: it
// admits a cycle's requests — one entry each, or, weighted, one per class
// whose weight each repeat raises — plans with LeeLo, delivers the plan and
// retires the classes it drains, whose entries the deliveries emptied.
func benchPaperCycles(b *testing.B, weighted bool) {
	r := rand.New(rand.NewSource(3))
	sizes := make([]int, 100)
	for d := range sizes {
		sizes[d] = 2000 + r.Intn(18000)
	}
	size := func(d xmldoc.DocID) int { return sizes[d] }
	answers := make([][]xmldoc.DocID, paperQueries)
	for q := range answers {
		answers[q] = randomSortedDocs(r, len(sizes), 60+r.Intn(41))
	}
	type class struct {
		entry Request
		ids   []int64 // its entries: the class's, or one per member
	}
	x := NewDemandIndex()
	var classes []*class
	nextID := int64(0)
	cycle := func(c int64) {
		fresh := make(map[int]*class, paperQueries)
		for k := 0; k < paperCycleReqs; k++ {
			q := r.Intn(paperQueries)
			cl := fresh[q]
			if cl == nil {
				cl = &class{entry: Request{ID: nextID, Arrival: c, Docs: slices.Clone(answers[q])}}
				fresh[q] = cl
				classes = append(classes, cl)
			}
			switch {
			case !weighted:
				x.Apply(Request{ID: nextID, Arrival: c, Docs: cl.entry.Docs}, size)
				cl.ids = append(cl.ids, nextID)
			case cl.ids == nil:
				x.Apply(cl.entry, size)
				cl.ids = append(cl.ids, nextID)
			default:
				cl.entry.Weight = cl.entry.weight() + 1
				x.Apply(cl.entry, size)
			}
			nextID++
		}
		plan := LeeLo{}.PlanIndexed(x, 100_000, c)
		for _, d := range plan {
			x.DeliverDoc(d)
		}
		classes = slices.DeleteFunc(classes, func(cl *class) bool {
			cl.entry.Docs = slices.DeleteFunc(cl.entry.Docs, func(d xmldoc.DocID) bool { return slices.Contains(plan, d) })
			if len(cl.entry.Docs) > 0 {
				return false
			}
			for _, id := range cl.ids {
				x.Remove(id)
			}
			return true
		})
	}
	for c := int64(0); c < 40; c++ { // to the steady state
		cycle(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(int64(40 + i))
	}
	b.StopTimer()
	b.ReportMetric(float64(x.Len()), "pending")
	b.ReportMetric(float64(len(classes)), "classes")
}

func BenchmarkLeeLo(b *testing.B) { benchScheduler(b, LeeLo{}) }
func BenchmarkFCFS(b *testing.B)  { benchScheduler(b, FCFS{}) }
func BenchmarkMRF(b *testing.B)   { benchScheduler(b, MRF{}) }
func BenchmarkRxW(b *testing.B)   { benchScheduler(b, RxW{}) }
