package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/schedule"
	"repro/internal/xmldoc"
)

// TestIncrementalScheduleMatchesReference drives an engine through a
// randomized pending-set evolution (arrivals, lossy deliveries, abandons,
// completions, and one high-churn burst that trips the rebuild fallback) and
// requires every cycle's placed documents to equal the reference's —
// PlanCycle over the pending slice, laid out around a from-scratch prune —
// for all four policies.
func TestIncrementalScheduleMatchesReference(t *testing.T) {
	c, queries := fixture(t, 30, 60)
	capacity := c.TotalSize() / 10

	for _, name := range schedule.Names() {
		t.Run(name, func(t *testing.T) {
			sched, err := schedule.New(name)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := New(Config{
				Collection:    c,
				Mode:          broadcast.TwoTierMode,
				Scheduler:     sched,
				CycleCapacity: capacity,
			})
			if err != nil {
				t.Fatal(err)
			}

			ref := referenceBuilder(t, c)

			answers := resolveAll(inc, queries)

			rng := rand.New(rand.NewSource(7))
			type client struct {
				p    Pending
				lost map[xmldoc.DocID]int // deliveries this client missed
			}
			var live []*client
			nextID := int64(0)
			for cycle := int64(0); cycle < 40; cycle++ {
				// Arrivals; cycle 20 replaces the whole audience — churn 1.0,
				// which must trip the fallback to a full rebuild.
				n := 1 + rng.Intn(4)
				if cycle == 20 {
					live = live[:0]
					n = 30
				}
				for i := 0; i < n; i++ {
					q := queries[rng.Intn(len(queries))]
					docs := answers[q.String()]
					if len(docs) == 0 {
						continue
					}
					live = append(live, &client{
						p: Pending{
							ID:        nextID,
							Query:     q,
							Arrival:   cycle,
							Remaining: append([]xmldoc.DocID(nil), docs...),
						},
						lost: map[xmldoc.DocID]int{},
					})
					nextID++
				}
				// Random abandons.
				keep := live[:0]
				for _, cl := range live {
					if rng.Intn(20) != 0 {
						keep = append(keep, cl)
					}
				}
				live = keep

				pending := make([]Pending, len(live))
				for i, cl := range live {
					pending[i] = cl.p
				}
				got, err := inc.AssembleCycle(cycle, cycle, pending)
				if err != nil {
					t.Fatal(err)
				}
				want, _, _ := referenceCycle(t, ref, sched, capacity, cycle, cycle, pending)
				if !reflect.DeepEqual(got.Docs, want.Docs) {
					t.Fatalf("cycle %d: incremental plan %v, reference %v", cycle, got.Docs, want.Docs)
				}

				// Lossy delivery: 15% of (client, doc) tunes are missed, so
				// those Remaining sets stay unshrunk and the next diff must
				// reconcile them against the index's post-plan state.
				aired := make(map[xmldoc.DocID]struct{}, len(got.Docs))
				for _, p := range got.Docs {
					aired[p.ID] = struct{}{}
				}
				keep = live[:0]
				for _, cl := range live {
					rem := cl.p.Remaining[:0]
					for _, d := range cl.p.Remaining {
						if _, ok := aired[d]; ok && rng.Intn(100) >= 15 {
							continue
						}
						rem = append(rem, d)
					}
					cl.p.Remaining = rem
					if len(rem) > 0 {
						keep = append(keep, cl)
					}
				}
				live = keep
			}

			im := inc.Metrics()
			if im.IncrementalSchedules == 0 {
				t.Error("incremental engine never took the delta path")
			}
			if im.FullSchedules == 0 {
				t.Error("churn burst never forced a full rebuild")
			}
			if im.Stages[StageScheduleDelta].Count == 0 {
				t.Error("schedule-delta stage never reported")
			}
		})
	}
}
