package schedule

import (
	"math/rand"
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
// schedule.plan_full_us / schedule.plan_indexed_us.
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
}

func BenchmarkLeeLo(b *testing.B) { benchScheduler(b, LeeLo{}) }
func BenchmarkFCFS(b *testing.B)  { benchScheduler(b, FCFS{}) }
func BenchmarkMRF(b *testing.B)   { benchScheduler(b, MRF{}) }
func BenchmarkRxW(b *testing.B)   { benchScheduler(b, RxW{}) }
