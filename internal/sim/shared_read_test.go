package sim

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/succinct"
	"repro/internal/xpath"
)

// freshIndexRead is what a client with a navigator of its own reads off one
// cycle's first tier (or one-tier index): the packets its lookup touches
// under the node stream, the touched bytes of a freshly parsed tier under
// succinct.
func freshIndexRead(t *testing.T, q xpath.Path, cy *engine.Cycle, enc core.IndexEncoding) int64 {
	t.Helper()
	nav := core.NewNavigator(q)
	if enc != core.EncodingSuccinct {
		return int64(cy.Packing.BytesFor(nav.Lookup(cy.Index).Visited))
	}
	blob, err := succinct.EncodeTier(cy.Index, cy.Catalog, cy.Packing.Model)
	if err != nil {
		t.Fatalf("EncodeTier: %v", err)
	}
	tier, err := succinct.Parse(blob, cy.Packing.Model, cy.Catalog)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cur := tier.NewCursor()
	cur.Lookup(nav.Filter())
	return int64(cur.TouchedBytes())
}

// TestSharedIndexReadsEqualPerClientReads: the clients of one query share one
// navigation per cycle. 120 clients arrive in four batches of 30, each batch
// while one cycle airs and asking one of 3 queries (one of them twice), so a
// query's clients first read the index together, on different cycles and over
// differently pruned tiers. Each client's index tuning must still be exactly
// what its own navigator would have read off the cycles it listened to —
// under two-tier, one-tier, the succinct tier, four channels, and with
// receptions lost (a lost first-tier read is read again, and counted again,
// on the next cycle).
func TestSharedIndexReadsEqualPerClientReads(t *testing.T) {
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 30, Seed: 5})
	if err != nil {
		t.Fatalf("Documents: %v", err)
	}
	pool, err := gen.Queries(c, gen.QueryConfig{NumQueries: 3, MaxDepth: 5, WildcardProb: 0.2, Seed: 6})
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	// Batch b asks pool[asks[b]]: first and last the widest query, whose read
	// grows as the other two join the pruned tier.
	asks := [4]int{2, 0, 1, 2}
	reqs := make([]ClientRequest, 4*30)
	for i := range reqs {
		batch := i / 30
		reqs[i] = ClientRequest{Query: pool[asks[batch]], Arrival: int64(2*batch*capacityFor(c) + i%30)}
	}

	for _, tc := range []struct {
		name string
		cfg  func(*Config)
	}{
		{"two_tier", func(*Config) {}},
		{"one_tier", func(cfg *Config) { cfg.Mode = broadcast.OneTierMode }},
		{"succinct", func(cfg *Config) { cfg.IndexEncoding = core.EncodingSuccinct }},
		{"k4", func(cfg *Config) { cfg.Channels = 4 }},
		{"two_tier_loss", func(cfg *Config) { cfg.LossProb, cfg.LossSeed = 0.1, 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cycles []*engine.Cycle
			cfg := Config{
				Collection:    c,
				Mode:          broadcast.TwoTierMode,
				CycleCapacity: capacityFor(c),
				Requests:      reqs,
				CycleSink:     func(cy *engine.Cycle, _ *engine.Encoded) { cycles = append(cycles, cy) },
			}
			tc.cfg(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			reread := 0 // clients whose first-tier read was lost at least once
			// The widest query's first reads must differ between its two
			// batches, or a read reused across cycles would go unnoticed.
			firstReads := map[int64]bool{}
			for i, cl := range res.Clients {
				q := reqs[i].Query
				// Listened cycles are consecutive from the first one: the
				// admission cycle, or on four channels the cycle whose
				// index repetition the client synced on while it aired.
				first := 0
				for first < len(cycles) && cycles[first].Start < cl.Arrival {
					first++
				}
				if cfg.Channels > 1 && first > 0 {
					if _, ok := cycles[first-1].SyncAfter(cl.Arrival); ok {
						first--
					}
				}
				listened := cycles[first : first+cl.CyclesListened]
				if i%90 < 30 {
					firstReads[freshIndexRead(t, q, listened[0], cfg.IndexEncoding)] = true
				}
				var perCycle int64 // second tier, or the channel directory
				for _, cy := range listened {
					switch {
					case cfg.Mode == broadcast.OneTierMode:
						perCycle += freshIndexRead(t, q, cy, cfg.IndexEncoding)
					case cfg.Channels > 1:
						perCycle += int64(cy.DirBytes)
					default:
						perCycle += int64(cy.SecondTierBytes)
					}
				}
				firstTier := cl.IndexTuningBytes - perCycle
				if cfg.Mode == broadcast.OneTierMode {
					if firstTier != 0 {
						t.Fatalf("client %d (%s): index tuning %d, fresh reads %d", i, q, cl.IndexTuningBytes, perCycle)
					}
					continue
				}
				// The first tier is read on the first listened cycle and,
				// after each lost read, on the next one.
				var want int64
				ok := false
				for k, cy := range listened {
					want += freshIndexRead(t, q, cy, cfg.IndexEncoding)
					if ok = want == firstTier; ok || cfg.LossProb == 0 {
						if k > 0 {
							reread++
						}
						break
					}
				}
				if !ok {
					t.Fatalf("client %d (%s): first-tier tuning %d, a fresh navigator reads %d from cycle %d",
						i, q, firstTier, freshIndexRead(t, q, listened[0], cfg.IndexEncoding), first)
				}
			}
			if len(firstReads) < 2 {
				t.Errorf("the widest query reads %v on each batch's first cycle; the workload cannot tell cycles apart", firstReads)
			}
			if cfg.LossProb > 0 && reread == 0 {
				t.Error("no first-tier read was lost; the re-read path went unchecked")
			}
		})
	}
}
