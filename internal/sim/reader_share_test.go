package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/engine"
)

// TestSharedReadersMatchPerClient: the clients the ledger admits into one
// class, sharing one reader fed once per cycle, end a run exactly
// as clients with a reader each do, client for client, cycle for cycle and
// frame byte for frame byte, on every lossless single-channel leg — and the
// shared run feeds fewer readers. A lossy run draws a loss per client and a
// K = 4 client reads for itself, so neither shares.
func TestSharedReadersMatchPerClient(t *testing.T) {
	c, reqs := workload(t, 40, 1000, 13)
	base := Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacityFor(c), Requests: reqs}
	legs := []struct {
		name  string
		cfg   func(*Config)
		share bool
	}{
		{"two_tier", func(*Config) {}, true},
		{"one_tier", func(c *Config) { c.Mode = broadcast.OneTierMode }, true},
		{"succinct", func(c *Config) { c.IndexEncoding = core.EncodingSuccinct }, true},
		{"compress", func(c *Config) { c.Compress = true }, true},
		{"whole_tier", func(c *Config) { c.WholeTierRead = true }, true},
		{"loss", func(c *Config) { c.LossProb, c.LossSeed = 0.2, 3 }, false},
		{"k4", func(c *Config) { c.Channels = 4 }, false},
	}
	defer func(f func(*Config) bool) { shareReaders = f }(shareReaders)
	defer func(f func(int) int) { attendShards = f }(attendShards)
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			// run returns the run's result, its frames on air and the readers
			// it fed, summed over cycles (a lossy run feeds them unsharded).
			run := func(share func(*Config) bool) (*Result, [][][]byte, int) {
				cfg := base
				leg.cfg(&cfg)
				var air [][][]byte
				cfg.CycleSink = func(_ *engine.Cycle, enc *engine.Encoded) {
					var frames [][]byte
					for _, ch := range enc.Frames {
						for _, f := range ch {
							frames = append(frames, slices.Clone(f))
						}
					}
					air = append(air, frames)
				}
				fed := 0
				attendShards = func(n int) int {
					fed += n
					return min(n, 4)
				}
				shareReaders = share
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, air, fed
			}
			own, ownAir, ownFed := run(func(*Config) bool { return false })
			shared := false
			res, air, fed := run(func(cfg *Config) bool {
				shared = defaultShare(cfg)
				return shared
			})
			if shared != leg.share {
				t.Fatalf("readers shared %v, want %v", shared, leg.share)
			}
			if shared && fed >= ownFed || !shared && fed != ownFed {
				t.Fatalf("%d readers fed with sharing %v, %d with a reader per client", fed, shared, ownFed)
			}
			if !reflect.DeepEqual(own.Clients, res.Clients) {
				for i := range own.Clients {
					if !reflect.DeepEqual(own.Clients[i], res.Clients[i]) {
						t.Fatalf("client %d: own reader %+v, shared %+v", i, own.Clients[i], res.Clients[i])
					}
				}
				t.Fatal("client stats differ")
			}
			if !reflect.DeepEqual(own.Cycles, res.Cycles) {
				t.Fatal("cycle stats differ")
			}
			if !reflect.DeepEqual(ownAir, air) {
				t.Fatal("frames on air differ")
			}
		})
	}
}

// defaultShare is shareReaders as the package sets it.
var defaultShare = shareReaders
