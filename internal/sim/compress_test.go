package sim

import (
	"reflect"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/engine"
)

// TestCompressionShrinksCyclesAndAccess pins the transport compression win
// at Table 2 scale: the same two-tier workload run with per-frame DEFLATE
// must answer every query identically, shrink the mean on-air cycle to at
// most 70% of the plain program's (the issue's ≥30% bar), and improve mean
// access time at the same fixed bandwidth — shorter cycles mean every
// result document lands sooner.
func TestCompressionShrinksCyclesAndAccess(t *testing.T) {
	c, reqs := workload(t, 40, 60, 7)
	run := func(compress bool, limits engine.Limits) *Result {
		t.Helper()
		res, err := Run(Config{
			Collection:    c,
			Mode:          broadcast.TwoTierMode,
			CycleCapacity: capacityFor(c),
			Requests:      reqs,
			Compress:      compress,
			Limits:        limits,
		})
		if err != nil {
			t.Fatalf("Run(compress=%v): %v", compress, err)
		}
		return res
	}
	plain := run(false, engine.Limits{})
	comp := run(true, engine.Limits{})

	// A document's envelope is built once and cached with its frame. Bounded
	// to one byte the cache keeps one entry at a time, so nearly every airing
	// is built afresh: the counts must not depend on which it was.
	uncached := run(true, engine.Limits{MaxPayloadCacheBytes: 1})
	if uncached.Engine.PayloadEvictions == 0 {
		t.Error("a one-byte payload cache evicted nothing")
	}
	for i := range comp.Cycles {
		if comp.Cycles[i].DurationBytes != uncached.Cycles[i].DurationBytes {
			t.Fatalf("cycle %d airs %d B with envelopes cached, %d B without", i, comp.Cycles[i].DurationBytes, uncached.Cycles[i].DurationBytes)
		}
	}
	for i := range comp.Clients {
		a, b := comp.Clients[i], uncached.Clients[i]
		if a.AccessBytes != b.AccessBytes || a.IndexTuningBytes != b.IndexTuningBytes || a.DocTuningBytes != b.DocTuningBytes {
			t.Fatalf("client %d: access/index/doc bytes %d/%d/%d with envelopes cached, %d/%d/%d without",
				i, a.AccessBytes, a.IndexTuningBytes, a.DocTuningBytes, b.AccessBytes, b.IndexTuningBytes, b.DocTuningBytes)
		}
	}

	for i := range plain.Clients {
		if !reflect.DeepEqual(plain.Clients[i].Docs, comp.Clients[i].Docs) {
			t.Fatalf("client %d answers diverged: plain %v, compressed %v",
				i, plain.Clients[i].Docs, comp.Clients[i].Docs)
		}
	}
	pb, cb := plain.MeanCycleBytes(), comp.MeanCycleBytes()
	if cb > 0.70*pb {
		t.Errorf("compressed mean cycle %.0f B > 70%% of plain %.0f B (ratio %.2f)", cb, pb, cb/pb)
	}
	if pa, ca := plain.MeanAccessBytes(), comp.MeanAccessBytes(); ca >= pa {
		t.Errorf("compressed mean access %.0f B did not improve on plain %.0f B", ca, pa)
	}
	t.Logf("cycle bytes: plain %.0f compressed %.0f (ratio %.2f); access: plain %.0f compressed %.0f",
		pb, cb, cb/pb, plain.MeanAccessBytes(), comp.MeanAccessBytes())
}

// TestCompressionOneTier exercises the compressed one-tier protocol (the
// whole index re-read every cycle, compressed): every query completes and
// tuning is accounted in compressed envelope sizes.
func TestCompressionOneTier(t *testing.T) {
	c, reqs := workload(t, 15, 20, 11)
	res, err := Run(Config{
		Collection:    c,
		Mode:          broadcast.OneTierMode,
		CycleCapacity: capacityFor(c),
		Requests:      reqs,
		Compress:      true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, cl := range res.Clients {
		if want := reqs[i].Query.MatchingDocs(c); !reflect.DeepEqual(cl.Docs, want) {
			t.Errorf("client %d docs = %v, want %v", i, cl.Docs, want)
		}
		if cl.IndexTuningBytes <= 0 || cl.DocTuningBytes <= 0 {
			t.Errorf("client %d tuning not accounted: index %d doc %d",
				i, cl.IndexTuningBytes, cl.DocTuningBytes)
		}
	}
}

// TestCompressRejectsUnsupportedCombos pins the validation: the compressed
// model is single-channel, so Channels > 1 alongside Compress is a
// configuration error, not a silent fallback.
func TestCompressRejectsUnsupportedCombos(t *testing.T) {
	c, reqs := workload(t, 5, 3, 7)
	multi := Config{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: capacityFor(c),
		Requests:      reqs,
		Compress:      true,
		Channels:      3,
	}
	if _, err := Run(multi); err == nil {
		t.Error("Compress + Channels=3 accepted, want configuration error")
	}
}

// TestCompressWithLoss: loss injection composes with the compressed model —
// every client still ends with exactly its result set, a lost envelope costs
// tuning and cycles over the lossless compressed run, and the run stays
// deterministic under its seed.
func TestCompressWithLoss(t *testing.T) {
	c, reqs := workload(t, 12, 8, 7)
	cfg := Config{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: capacityFor(c),
		Requests:      reqs,
		Compress:      true,
	}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run lossless: %v", err)
	}
	cfg.LossProb, cfg.LossSeed = 0.3, 11
	lossy, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run lossy: %v", err)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run lossy again: %v", err)
	}
	for i, cl := range lossy.Clients {
		if want := reqs[i].Query.MatchingDocs(c); !reflect.DeepEqual(cl.Docs, want) {
			t.Errorf("client %d docs = %v, want %v", i, cl.Docs, want)
		}
	}
	if lossy.MeanTuningBytes() <= clean.MeanTuningBytes() || lossy.NumCycles() <= clean.NumCycles() {
		t.Errorf("30%% loss cost nothing: tuning %.0f vs %.0f, cycles %d vs %d",
			lossy.MeanTuningBytes(), clean.MeanTuningBytes(), lossy.NumCycles(), clean.NumCycles())
	}
	if lossy.MeanAccessBytes() != again.MeanAccessBytes() || lossy.MeanTuningBytes() != again.MeanTuningBytes() {
		t.Error("lossy compressed run is not deterministic under its seed")
	}
}
