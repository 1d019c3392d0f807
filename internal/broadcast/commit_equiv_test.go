package broadcast

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/xmldoc"
)

// referenceCommitments is the map-keyed selection the sorted-set Commitments
// and CommitmentsFrom replaced, kept verbatim as the oracle of
// TestCommitmentsMatchMapReference.
func referenceCommitments(c *Cycle, want map[xmldoc.DocID]struct{}, ready int64, busy []AirInterval) []Commitment {
	if len(c.Channels) <= 1 {
		out := make([]Commitment, 0, len(want))
		for _, p := range c.Docs {
			if _, ok := want[p.ID]; ok {
				start, end := c.DocAirInterval(p)
				out = append(out, Commitment{p, start, end})
			}
		}
		return out
	}
	k := int64(len(c.Channels))
	cand := make([]Commitment, 0, len(want))
	addAirings := func(p DocPlacement, s0, unit, reps int64) {
		r := int64(0)
		if ready > s0 && unit > 0 {
			r = (ready - s0 + unit - 1) / unit
		}
		for ; r < reps; r++ {
			start := s0 + r*unit
			if start < ready {
				break
			}
			cand = append(cand, Commitment{p, start, start + int64(p.Size)*k})
		}
	}
	for _, p := range c.Docs {
		if _, ok := want[p.ID]; !ok {
			continue
		}
		s0, _ := c.DocAirInterval(p)
		unit := k * int64(c.Channels[p.Channel].Bytes)
		addAirings(p, s0, unit, int64(c.ChannelRepetitions(p.Channel)))
	}
	hotStart := int64(c.channelLead() + c.IndexBytes)
	for _, p := range c.HotDocs {
		if _, ok := want[p.ID]; !ok {
			continue
		}
		s0 := c.Start + k*(hotStart+int64(p.Offset))
		addAirings(p, s0, k*int64(c.indexUnit()), int64(c.IndexRepetitions()))
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].End != cand[j].End {
			return cand[i].End < cand[j].End
		}
		if cand[i].Start != cand[j].Start {
			return cand[i].Start < cand[j].Start
		}
		return cand[i].ID < cand[j].ID
	})
	committed := append([]AirInterval(nil), busy...)
	taken := make(map[xmldoc.DocID]struct{}, len(want))
	var out []Commitment
	for _, w := range cand {
		if _, dup := taken[w.ID]; dup {
			continue
		}
		conflict := false
		for _, cm := range committed {
			if w.Start < cm.End && cm.Start < w.End {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		committed = append(committed, AirInterval{w.Start, w.End})
		taken[w.ID] = struct{}{}
		out = append(out, w)
	}
	return out
}

// TestCommitmentsMatchMapReference: for K in {1, 4}, over random plans, want
// sets, ready times and busy spans, retiring against the sorted remaining set
// into a reused buffer returns exactly what the map-keyed selection returned
// — same documents, same airings, same order — and leaves the buffer's
// earlier entries alone.
func TestCommitmentsMatchMapReference(t *testing.T) {
	c, queries := testSetup(t)
	ids := c.IDs()
	r := rand.New(rand.NewSource(7))
	sentinel := Commitment{Start: -1, End: -1}
	var buf []Commitment
	for _, k := range []int{1, 4} {
		committed, skipped := 0, 0 // the trials must exercise both outcomes
		for trial := 0; trial < 200; trial++ {
			b, err := NewBuilder(c, core.DefaultSizeModel(), TwoTierMode)
			if err != nil {
				t.Fatal(err)
			}
			if k > 1 {
				if err := b.SetChannels(k); err != nil {
					t.Fatal(err)
				}
			}
			plan := slices.Clone(ids)
			r.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
			plan = plan[:1+r.Intn(len(plan))]
			cy, err := b.BuildCycle(int64(trial), int64(r.Intn(1<<20)), queries[:6], plan)
			if err != nil {
				t.Fatal(err)
			}
			var sorted []xmldoc.DocID
			asMap := make(map[xmldoc.DocID]struct{})
			for _, id := range ids {
				if r.Intn(3) > 0 {
					sorted = append(sorted, id) // ids ascend
					asMap[id] = struct{}{}
				}
			}
			check := func(what string, got, want []Commitment) {
				t.Helper()
				if got[0] != sentinel {
					t.Fatalf("K=%d trial %d %s: buffer prefix overwritten", k, trial, what)
				}
				if !slices.Equal(got[1:], want) {
					t.Fatalf("K=%d trial %d %s:\n got %+v\nwant %+v", k, trial, what, got[1:], want)
				}
			}
			for _, first := range []bool{false, true} {
				ready := cy.DirEnd()
				if first {
					ready = cy.IndexEnd()
				}
				buf = cy.Commitments(append(buf[:0], sentinel), sorted, first)
				check("Commitments", buf, referenceCommitments(cy, asMap, ready, nil))
				committed += len(buf) - 1
				for _, p := range cy.Docs {
					if xmldoc.HasID(sorted, p.ID) {
						skipped++
					}
				}
				skipped -= len(buf) - 1
			}
			ready := cy.Start + r.Int63n(cy.Duration()+1)
			var busy []AirInterval
			for i := r.Intn(3); i > 0; i-- {
				s := cy.Start + r.Int63n(cy.Duration()+1)
				busy = append(busy, AirInterval{s, s + 1 + r.Int63n(4096)})
			}
			buf = cy.CommitmentsFrom(append(buf[:0], sentinel), sorted, ready, busy)
			check("CommitmentsFrom", buf, referenceCommitments(cy, asMap, ready, busy))
		}
		if committed == 0 || (k > 1 && skipped == 0) {
			t.Errorf("K=%d: %d wanted documents committed, %d skipped; the trials exercise too little", k, committed, skipped)
		}
	}
}
