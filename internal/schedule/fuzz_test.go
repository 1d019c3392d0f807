package schedule

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/xmldoc"
)

// FuzzDemandIndex interprets the input as an op stream over a DemandIndex —
// add, shrink-reconcile, remove, deliver (with the requests that lost the
// document re-applied), plan (with its plan-delta rollback) and sharded
// rebuild — mirrored against a plain pending slice. A request a delivery
// empties stays in both, with no documents, until a remove drops it. After
// every op the index invariants must hold and all four incremental planners
// must equal their reference oracles.
func FuzzDemandIndex(f *testing.F) {
	f.Add([]byte{0x10, 0x23, 0x31, 0x42, 0x00, 0x57, 0x68})
	f.Add([]byte{0x00, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80})
	f.Add([]byte{0x0f, 0x1f, 0x2f, 0x3f, 0x4f, 0x5f, 0x6f, 0x7f})
	// Dense: three requests for documents {0, 1}, so a pick's requester links
	// (6) outnumber the live documents (2) and LeeLo's growth goes to the
	// whole table.
	f.Add([]byte{0x00, 0x10, 0x00, 0x10, 0x00, 0x10, 0x04, 0x00, 0x03, 0x00, 0x04, 0x00})
	// One request for documents {0, 3}, then two plans with no delivery
	// between: a plan that kept its scores in the cached base score started
	// the second plan from the first one's.
	f.Add([]byte("00X0X"))
	// An exact tie settled mid-plan: three requests for document 3 alone make
	// it the first pick, and one request for {1, 2} gives documents 1 and 2
	// the same requester list, so both are re-summed to equal scores and 1
	// must come before 2.
	f.Add([]byte{0x00, 0x33, 0x00, 0x33, 0x00, 0x33, 0x00, 0x21, 0x04, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nDocs, capacity = 16, 900
		size := func(d xmldoc.DocID) int { return 100 + 37*int(d) }

		x := NewDemandIndex()
		var mirror []Request
		nextID := int64(0)
		now := int64(0)
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		for {
			op, ok := next()
			if !ok {
				break
			}
			arg, _ := next()
			now++
			switch op % 6 {
			case 0: // add
				docs := []xmldoc.DocID{xmldoc.DocID(arg % nDocs)}
				if extra := xmldoc.DocID((arg >> 4) % nDocs); extra != docs[0] {
					if extra < docs[0] {
						docs = []xmldoc.DocID{extra, docs[0]}
					} else {
						docs = append(docs, extra)
					}
				}
				r := Request{ID: nextID, Arrival: now - int64(arg%5), Docs: docs}
				nextID++
				mirror = append(mirror, r)
				x.Apply(r, size)
			case 1: // remove
				if len(mirror) == 0 {
					continue
				}
				i := int(arg) % len(mirror)
				x.Remove(mirror[i].ID)
				mirror = append(mirror[:i], mirror[i+1:]...)
			case 2: // shrink-reconcile: one doc delivered out of band
				if len(mirror) == 0 {
					continue
				}
				i := int(arg) % len(mirror)
				r := &mirror[i]
				if len(r.Docs) > 1 {
					j := int(arg>>4) % len(r.Docs)
					r.Docs = append(r.Docs[:j], r.Docs[j+1:]...)
					x.Apply(*r, size)
				}
			case 3: // deliver one doc everywhere; the high nibble picks, by
				// position mod 4, the requests that lost it and re-apply it
				d := xmldoc.DocID(arg % nDocs)
				x.DeliverDoc(d)
				for i := range mirror {
					r := &mirror[i]
					if j, ok := slices.BinarySearch(r.Docs, d); ok && arg>>(4+i%4)&1 == 0 {
						r.Docs = slices.Delete(r.Docs, j, j+1)
					} else if ok {
						x.Apply(*r, size)
					}
				}
			case 4: // plan and compare all four policies
				if len(mirror) == 0 {
					continue
				}
				for _, name := range Names() {
					sched, _ := New(name)
					want := sched.PlanCycle(mirror, size, capacity, now)
					got := sched.PlanIndexed(x, capacity, now)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: PlanIndexed = %v, reference = %v", name, got, want)
					}
				}
			case 5: // sharded rebuild
				x.Rebuild(mirror, size, 1+int(arg%4))
			}
			checkInvariants(t, x)
		}
	})
}
