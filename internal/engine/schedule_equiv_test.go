package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/schedule"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// TestIncrementalScheduleMatchesReference walks an in-memory ledger through
// seeded admissions (up to three of one query at once, which share a class),
// cycles whose air reports random documents Missed — which splits classes,
// re-keying those whose keying member leaves — and document removals, on one channel and on four (where a
// commitment can fall short of the plan), with each policy planning the
// walk's cycles. Before every cycle and after every removal, each of the four
// policies must plan from the demand index the ledger feeds exactly what its
// PlanCycle plans over the ledger's weighted entries, one per class in the
// index's order; FCFS, MRF and RxW must also plan what they plan over
// l.Pending(), one entry per request. The classes must hold the pending set
// exactly (classEntries). Every cycle is planned incrementally and its commit
// reports the index's upkeep.
func TestIncrementalScheduleMatchesReference(t *testing.T) {
	c, queries := fixture(t, 30, 60)
	for _, name := range schedule.Names() {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{1, 4} {
				t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) { demandWalk(t, c, queries, name, k) })
			}
		})
	}
}

func demandWalk(t *testing.T, c *xmldoc.Collection, queries []xpath.Path, name string, channels int) {
	sched, err := schedule.New(name)
	if err != nil {
		t.Fatal(err)
	}
	live := slices.Clone(c.Docs())
	coll, err := xmldoc.NewCollection(live) // RemoveDocument writes to it
	if err != nil {
		t.Fatal(err)
	}
	capacity := 2 * c.TotalSize() / c.Len()
	e, err := New(Config{Collection: coll, Mode: broadcast.TwoTierMode, Scheduler: sched, CycleCapacity: capacity, Channels: channels})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLedger(e, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	policies := make([]schedule.Scheduler, 0, len(schedule.Names()))
	for _, n := range schedule.Names() {
		p, err := schedule.New(n)
		if err != nil {
			t.Fatal(err)
		}
		policies = append(policies, p)
	}
	check := func(step int, now int64) {
		t.Helper()
		entries := classEntries(t, fmt.Sprintf("step %d", step), l)
		pending := l.Pending()
		reqs := make([]schedule.Request, len(pending))
		for i, p := range pending {
			reqs[i] = schedule.Request{ID: p.ID, Arrival: p.Arrival, Docs: p.Remaining}
		}
		for _, p := range policies {
			want := p.PlanCycle(entries, e.docSize, capacity, now)
			if got := p.PlanIndexed(l.demand, capacity, now); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s plans %v from the ledger's index, %v over its entries", step, p.Name(), got, want)
			}
			if p.Name() == "leelo" {
				continue // its terms round by weight: only the entries define its plan
			}
			if got := p.PlanCycle(reqs, e.docSize, capacity, now); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: %s plans %v over the pending set, %v over its entries", step, p.Name(), got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(int64(7 + channels)))
	now, aired, missed, splits, rekeys := int64(0), 0, 0, 0, 0
	for step := 0; step < 300; step++ {
		now += int64(1 + rng.Intn(50))
		switch op := rng.Intn(10); {
		case op < 4:
			q := queries[rng.Intn(len(queries))]
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if _, _, err := l.Admit(q, 0, now); err != nil && len(e.Resolve(q)) > 0 {
					t.Fatalf("step %d: Admit: %v", step, err)
				}
			}
		case op < 9:
			if l.Len() == 0 {
				continue
			}
			check(step, now)
			cy, _, err := l.Air(now, func(_ *Cycle, enc *Encoded) error {
				e.Recycle(enc)
				for _, p := range l.Pending() {
					if cm := l.Commitments(p.ID); len(cm) > 0 && rng.Intn(4) == 0 {
						if c := l.pending[p.ID]; len(c.members) > 1 {
							splits++
							if c.id() == p.ID {
								rekeys++
							}
						}
						if err := l.Missed(p.ID, cm[rng.Intn(len(cm))].ID); err != nil {
							return err
						}
						missed++
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("step %d: Air: %v", step, err)
			}
			aired++
			now = cy.End()
		default:
			if len(live) <= 5 {
				continue
			}
			i := rng.Intn(len(live))
			if err := l.RemoveDocument(live[i].ID); err != nil {
				t.Fatalf("step %d: RemoveDocument(%d): %v", step, live[i].ID, err)
			}
			live = slices.Delete(live, i, i+1)
			check(step, now)
		}
	}
	check(300, now)
	if aired < 50 || missed == 0 || rekeys == 0 || splits == rekeys {
		t.Fatalf("the walk aired %d cycles with %d documents missed, %d splitting a class, %d of them re-keying it: too few to exercise the upkeep", aired, missed, splits, rekeys)
	}
	m := e.Metrics()
	if m.IncrementalSchedules != int64(aired) || m.FullSchedules != 0 {
		t.Errorf("%d cycles planned: %d incremental, %d full schedules reported", aired, m.IncrementalSchedules, m.FullSchedules)
	}
	if got := m.Stages[StageScheduleDelta].Count; got != int64(aired) {
		t.Errorf("%d commits reported the index's upkeep, %d cycles aired", got, aired)
	}
}

// classEntries fails unless l's classes hold its pending set exactly: each
// class's members sorted by ID, every member mapped to its class — so no
// request is in two — and the map holding nothing else, the classes in
// entry-ID order and the demand index standing for every pending request. It
// returns the classes' demand-index entries, each keyed by the first member's
// ID and arrival and weighted by the members, in the index's order.
func classEntries(t *testing.T, when string, l *Ledger) []schedule.Request {
	t.Helper()
	entries := make([]schedule.Request, len(l.classes))
	members := 0
	for i, c := range l.classes {
		if len(c.members) == 0 {
			t.Fatalf("%s: class %d has no members", when, i)
		}
		for j, m := range c.members {
			if j > 0 && c.members[j-1].id >= m.id {
				t.Fatalf("%s: class %d lists members %v, not in ID order", when, i, c.members)
			}
			if o := l.pending[m.id]; o != c {
				t.Fatalf("%s: request %d is a member of class %d, the ledger maps it to %p (class %p)", when, m.id, i, o, c)
			}
		}
		members += len(c.members)
		entries[i] = schedule.Request{ID: c.members[0].id, Arrival: c.members[0].arrival, Docs: c.docs, Weight: len(c.members)}
		if i > 0 && entries[i-1].ID >= entries[i].ID {
			t.Fatalf("%s: class %d keyed %d after one keyed %d", when, i, entries[i].ID, entries[i-1].ID)
		}
	}
	if len(l.pending) != members || l.demand.Len() != members {
		t.Fatalf("%s: %d requests pending, %d in the index, the classes hold %d", when, len(l.pending), l.demand.Len(), members)
	}
	return entries
}
