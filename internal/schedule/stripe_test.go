package schedule

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/xmldoc"
)

func TestStripeSingleChannelIdentity(t *testing.T) {
	plan := []xmldoc.DocID{5, 3, 9, 1}
	size := func(d xmldoc.DocID) int { return int(d) }
	for _, k := range []int{0, 1} {
		got := Stripe(plan, size, k)
		if len(got) != 1 || !reflect.DeepEqual(got[0], plan) {
			t.Errorf("Stripe(k=%d) = %v, want the plan as one stripe", k, got)
		}
	}
}

func TestStripePreservesOrderAndPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := make(map[xmldoc.DocID]int)
	var plan []xmldoc.DocID
	for i := 0; i < 50; i++ {
		d := xmldoc.DocID(i)
		plan = append(plan, d)
		sizes[d] = 100 + rng.Intn(4000)
	}
	size := func(d xmldoc.DocID) int { return sizes[d] }
	for _, k := range []int{2, 3, 7} {
		stripes := Stripe(plan, size, k)
		if len(stripes) != k {
			t.Fatalf("k=%d: got %d stripes", k, len(stripes))
		}
		// Every document appears exactly once, and each stripe preserves
		// the plan's delivery order.
		seen := make(map[xmldoc.DocID]bool)
		for _, s := range stripes {
			for i, d := range s {
				if seen[d] {
					t.Fatalf("k=%d: doc %d striped twice", k, d)
				}
				seen[d] = true
				if i > 0 && s[i-1] >= d {
					t.Errorf("k=%d: stripe order %v violates plan order", k, s)
				}
			}
		}
		if len(seen) != len(plan) {
			t.Errorf("k=%d: %d of %d docs striped", k, len(seen), len(plan))
		}
	}
}

func TestStripeBalance(t *testing.T) {
	// Uniform sizes: greedy least-loaded must keep loads within one
	// document of each other.
	var plan []xmldoc.DocID
	for i := 0; i < 41; i++ {
		plan = append(plan, xmldoc.DocID(i))
	}
	const docSize = 1000
	size := func(xmldoc.DocID) int { return docSize }
	stripes := Stripe(plan, size, 4)
	min, max := len(plan), 0
	for _, s := range stripes {
		if len(s) < min {
			min = len(s)
		}
		if len(s) > max {
			max = len(s)
		}
	}
	if max-min > 1 {
		t.Errorf("uniform stripes sized %d..%d docs; want within one", min, max)
	}
}

func TestStripeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := make(map[xmldoc.DocID]int)
	var plan []xmldoc.DocID
	for i := 0; i < 30; i++ {
		d := xmldoc.DocID(rng.Intn(1000))
		if _, dup := sizes[d]; dup {
			continue
		}
		plan = append(plan, d)
		sizes[d] = 1 + rng.Intn(5000)
	}
	size := func(d xmldoc.DocID) int { return sizes[d] }
	first := Stripe(plan, size, 5)
	for i := 0; i < 10; i++ {
		if got := Stripe(plan, size, 5); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: striping is not deterministic", i)
		}
	}
}
