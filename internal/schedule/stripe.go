package schedule

import "repro/internal/xmldoc"

// Stripe partitions a cycle's document plan across k parallel data channels.
// The plan arrives in the policy's broadcast order (LeeLo, FCFS, MRF, RxW —
// whatever produced it) and that order is preserved within every stripe, so
// each channel broadcasts its share under the same policy semantics; the
// striping only decides which channel carries which document.
//
// Assignment is greedy least-loaded by accumulated bytes, walking the plan in
// delivery order and placing each document on the channel with the fewest
// bytes so far (ties break to the lowest channel index). This keeps channel
// loads within one document of each other — the multichannel cycle length is
// k times the heaviest channel, so balance is directly cycle length — and is
// fully deterministic, which the sim-vs-netcast byte-equivalence tests
// require.
//
// k <= 1 returns the plan as a single stripe.
func Stripe(plan []xmldoc.DocID, size func(xmldoc.DocID) int, k int) [][]xmldoc.DocID {
	if k <= 1 {
		return [][]xmldoc.DocID{plan}
	}
	stripes := make([][]xmldoc.DocID, k)
	loads := make([]int, k)
	for _, d := range plan {
		best := 0
		for c := 1; c < k; c++ {
			if loads[c] < loads[best] {
				best = c
			}
		}
		stripes[best] = append(stripes[best], d)
		loads[best] += size(d)
	}
	return stripes
}
