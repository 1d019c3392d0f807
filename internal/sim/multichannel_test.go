package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// singleDocWorkload builds numDocs documents with unique two-level paths and
// one exact query per document, then draws nreq requests Zipf-distributed
// over the documents with arrivals spaced gap byte-ticks apart. Each request
// resolves to exactly one document, which makes per-client accounting in the
// multichannel comparisons exact.
func singleDocWorkload(t *testing.T, numDocs, pad int, zipfS float64, nreq int, gap int64, seed int64) (*xmldoc.Collection, []ClientRequest) {
	t.Helper()
	docs := make([]*xmldoc.Document, numDocs)
	queries := make([]xpath.Path, numDocs)
	for i := 0; i < numDocs; i++ {
		a, b := fmt.Sprintf("r%d", i), fmt.Sprintf("s%d", i)
		leaf := &xmldoc.Node{Label: b, Text: strings.Repeat("x", pad)}
		root := &xmldoc.Node{Label: a, Children: []*xmldoc.Node{leaf}}
		docs[i] = xmldoc.NewDocument(xmldoc.DocID(i+1), root)
		queries[i] = xpath.MustParse("/" + a + "/" + b)
	}
	c, err := xmldoc.NewCollection(docs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, uint64(numDocs-1))
	reqs := make([]ClientRequest, nreq)
	for i := range reqs {
		reqs[i] = ClientRequest{Query: queries[z.Uint64()], Arrival: int64(i) * gap}
	}
	return c, reqs
}

// TestMultichannelReducesAccessTime pins the multichannel win the channel
// plan is built for: at fixed aggregate bandwidth, splitting the broadcast
// across four channels reduces mean access time versus a single channel.
//
// The fixture is the regime the two-tier air model favors for K > 1:
// saturated steady state (every cycle carries the whole collection, so the
// queue-feedback loop that otherwise inflates multichannel cycles is capped),
// large documents (the per-channel guard prefix is small relative to
// payload), and skewed demand (the index channel's repetition unit carries
// the hottest plan prefix, so clients that sync mid-cycle — including
// eavesdroppers not yet admitted — catch the head of demand within one
// repetition instead of one cycle). The win must hold on every seed, not on
// average: the mechanism is structural, not statistical.
func TestMultichannelReducesAccessTime(t *testing.T) {
	const (
		numDocs = 80
		pad     = 1600
		nreq    = 4000
		zipfS   = 1.6
		gap     = 40
	)
	for seed := int64(1); seed <= 3; seed++ {
		c, reqs := singleDocWorkload(t, numDocs, pad, zipfS, nreq, gap, seed)
		capacity := c.TotalSize()
		run := func(k int) *Result {
			res, err := Run(Config{
				Collection:    c,
				Mode:          broadcast.TwoTierMode,
				CycleCapacity: capacity,
				Requests:      reqs,
				Channels:      k,
			})
			if err != nil {
				t.Fatalf("seed %d K=%d: %v", seed, k, err)
			}
			return res
		}
		serial, multi := run(1), run(4)

		if s, m := serial.MeanAccessBytes(), multi.MeanAccessBytes(); m >= s {
			t.Errorf("seed %d: K=4 mean access %.0f, not below K=1 %.0f", seed, m, s)
		} else {
			t.Logf("seed %d: mean access K=1 %.0f, K=4 %.0f (%.1f%% reduction)",
				seed, s, m, 100*(1-m/s))
		}

		// The reduction comes from mid-cycle sync points: pre-admission
		// clients eavesdrop on repetitions and catch hot documents early.
		// If no client ever catches one, the mechanism is broken even if
		// the headline number happens to hold.
		if multi.EavesdropClients() == 0 {
			t.Errorf("seed %d: no K=4 client caught a document by eavesdropping", seed)
		}
		if reps := multi.MeanIndexRepetitions(); reps <= 1 {
			t.Errorf("seed %d: index channel aired %.1f repetitions per cycle; expected replication", seed, reps)
		}
	}
}

// TestMultichannelClientModelPinned pins the single-tuner client model's
// absolute figures, where the other multichannel tests pin relative claims:
// mean access time and index tuning at K = 2, 4 and 8 and at K = 4 with 10 %
// loss, on the workload `bcast-sim -docs 100 -nq 2000` runs (100 generated
// NITF documents, 2 000 requests 100 byte-ticks apart, 100 000-byte cycles),
// which prints them rounded. The means are exact: every sum is an integer
// below 2^53.
func TestMultichannelClientModelPinned(t *testing.T) {
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.Queries(c, gen.QueryConfig{NumQueries: 2000, MaxDepth: 5, WildcardProb: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]ClientRequest, len(qs))
	for i, q := range qs {
		reqs[i] = ClientRequest{Query: q, Arrival: int64(i) * 100}
	}
	for _, leg := range []struct {
		name          string
		k             int
		loss          float64
		access, index float64
	}{
		{"k2", 2, 0, 1230071.859, 2102.203},
		{"k4", 4, 0, 3052586.21, 3489.8075},
		{"k8", 8, 0, 6249855.68, 4066.296},
		{"k4_loss", 4, 0.1, 5271865.79, 5510.514},
	} {
		t.Run(leg.name, func(t *testing.T) {
			res, err := Run(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: 100_000, Requests: reqs,
				Channels: leg.k, LossProb: leg.loss, LossSeed: 1, MaxCycles: 500})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.MeanAccessBytes(); got != leg.access {
				t.Errorf("mean access %.3f B, want %.3f B", got, leg.access)
			}
			if got := res.MeanIndexTuningBytes(); got != leg.index {
				t.Errorf("mean index tuning %.4f B, want %.4f B", got, leg.index)
			}
		})
	}
}
