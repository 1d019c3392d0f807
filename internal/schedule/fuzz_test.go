package schedule

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/xmldoc"
)

// FuzzDemandIndex interprets the input as an op stream over a DemandIndex —
// add, shrink-reconcile, remove, deliver (with the requests that lost the
// document re-applied), plan (with its plan-delta rollback), sharded
// rebuild, weight raise (a repeat admission into a class) and split (a class
// losing members to an entry keyed by one of their IDs, which falls between
// the class's and the next entry's, as engine.Ledger's Missed splits do) —
// mirrored against a plain pending slice of weighted entries in ID order.
// Adds space their IDs apart so a split has IDs to take; it may take a
// removed entry's, as the ledger re-keys a class by a member whose own class
// merged away. When the op byte's bit 3 is set, an add adds two entries
// and splits and re-applies hand theirs over, all through ApplyAll. An entry a delivery
// empties stays in both, with no documents, until a remove drops it. After
// every op the index invariants must hold and all four incremental planners
// must equal their reference oracles.
func FuzzDemandIndex(f *testing.F) {
	// The first three seeds date from six ops: their op bytes are written so
	// that op%8 is what op%6 was.
	f.Add([]byte{0x04, 0x23, 0x01, 0x42, 0x00, 0x57, 0x02})
	f.Add([]byte{0x00, 0x00, 0x04, 0x20, 0x00, 0x40, 0x02, 0x60, 0x04, 0x80})
	f.Add([]byte{0x03, 0x1f, 0x05, 0x3f, 0x01, 0x5f, 0x03, 0x7f})
	// Dense: three requests for documents {0, 1}, so a pick's requester links
	// (6) outnumber the live documents (2) and LeeLo's growth goes to the
	// whole table.
	f.Add([]byte{0x00, 0x10, 0x00, 0x10, 0x00, 0x10, 0x04, 0x00, 0x03, 0x00, 0x04, 0x00})
	// One request for documents {0, 3}, then two plans with no delivery
	// between: a plan that kept its scores in the cached base score started
	// the second plan from the first one's.
	f.Add([]byte("00404"))
	// An exact tie settled mid-plan: three requests for document 3 alone make
	// it the first pick, and one request for {1, 2} gives documents 1 and 2
	// the same requester list, so both are re-summed to equal scores and 1
	// must come before 2.
	f.Add([]byte{0x00, 0x33, 0x00, 0x33, 0x00, 0x33, 0x00, 0x21, 0x04, 0x00})
	// Two entries, for documents {1, 2} and {1, 3}, the first raised to
	// weight 4 and then split twice, a plan after each: one member leaves
	// for ID 1, then two for ID 2, both between the entries' IDs 0 and 4 on
	// document 1's requester list.
	f.Add([]byte{0x00, 0x21, 0x00, 0x31, 0x06, 0x20, 0x04, 0x00, 0x07, 0x00, 0x04, 0x00, 0x07, 0x18, 0x04, 0x00})
	// The same through ApplyAll (op bit 3), the second add adding two entries
	// (IDs 4 and 8), then document 1 delivered and re-applied at once to the
	// three of the five entries that lost it (IDs 1, 2 and 4).
	f.Add([]byte{0x00, 0x21, 0x08, 0x31, 0x06, 0x21, 0x04, 0x00, 0x0f, 0x00, 0x04, 0x00, 0x0f, 0x18, 0x04, 0x00, 0x0b, 0xe1, 0x04, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nDocs, capacity = 16, 900
		size := func(d xmldoc.DocID) int { return 100 + 37*int(d) }

		x := NewDemandIndex()
		var mirror []Request // in ID order
		const stride = 4     // the IDs an add skips, for splits to take
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
			// apply hands entries to the index one Apply at a time, or, when
			// the op's bit 3 is set, all at once with ApplyAll.
			apply := func(rs ...Request) {
				if op&8 != 0 {
					x.ApplyAll(rs, size)
					return
				}
				for _, r := range rs {
					x.Apply(r, size)
				}
			}
			switch op % 8 {
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
				nextID += stride
				mirror = append(mirror, r)
				if op&8 == 0 {
					x.Apply(r, size)
					break
				}
				// A second entry for the same documents, arrived earlier,
				// added with the first.
				r2 := Request{ID: nextID, Arrival: r.Arrival - 1, Docs: slices.Clone(docs)}
				nextID += stride
				mirror = append(mirror, r2)
				apply(r2, r)
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
				var lost []Request
				for i := range mirror {
					r := &mirror[i]
					if j, ok := slices.BinarySearch(r.Docs, d); ok && arg>>(4+i%4)&1 == 0 {
						r.Docs = slices.Delete(r.Docs, j, j+1)
					} else if ok {
						lost = append(lost, *r)
					}
				}
				apply(lost...)
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
			case 6: // weight raise
				if len(mirror) == 0 {
					continue
				}
				r := &mirror[int(arg)%len(mirror)]
				r.Weight = r.weight() + 1 + int(arg>>4)%3
				x.Apply(*r, size)
			case 7: // split k members off an entry of weight w
				if len(mirror) == 0 {
					continue
				}
				i := int(arg) % len(mirror)
				r := mirror[i]
				w := r.weight()
				if w < 2 {
					continue
				}
				k := 1 + int(arg>>4&7)%(w-1)
				p := Request{ID: r.ID + 1 + int64(arg>>3&1), Arrival: r.Arrival + int64(arg>>7), Docs: slices.Clone(r.Docs), Weight: k}
				j, taken := slices.BinarySearchFunc(mirror, p.ID, func(m Request, id int64) int { return cmp.Compare(m.ID, id) })
				if taken || p.ID >= nextID { // live, or an add's to come
					continue
				}
				mirror[i].Weight = w - k
				mirror = slices.Insert(mirror, j, p)
				apply(p, mirror[i])
			}
			checkInvariants(t, x)
		}
	})
}
