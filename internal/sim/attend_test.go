package sim

import (
	"reflect"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
)

// TestAttendParallelMatchesSerial: clients attending a cycle on several
// goroutines end every run exactly as one goroutine attending them in order
// does, client for client and cycle for cycle, on every leg of the mode
// matrix. A lossy run draws its losses in client order, so it stays on one
// goroutine whatever the shard count allows.
func TestAttendParallelMatchesSerial(t *testing.T) {
	c, reqs := workload(t, 40, 2000, 11)
	base := Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacityFor(c), Requests: reqs}
	legs := []struct {
		name string
		cfg  func(*Config)
	}{
		{"two_tier", func(*Config) {}},
		{"one_tier", func(c *Config) { c.Mode = broadcast.OneTierMode }},
		{"succinct", func(c *Config) { c.IndexEncoding = core.EncodingSuccinct }},
		{"compress", func(c *Config) { c.Compress = true }},
		{"k4", func(c *Config) { c.Channels = 4 }},
		{"loss", func(c *Config) { c.LossProb, c.LossSeed = 0.2, 3 }},
		{"k4_loss", func(c *Config) { c.Channels, c.LossProb, c.LossSeed = 4, 0.2, 3 }},
	}
	defer func(f func(int) int) { attendShards = f }(attendShards)
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			cfg := base
			leg.cfg(&cfg)
			attendShards = func(int) int { return 1 }
			serial, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			parallel := 0 // cycles attended on more than one goroutine
			attendShards = func(n int) int {
				s := min(n, 4)
				if s > 1 {
					parallel++
				}
				return s
			}
			sharded, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if lossy := cfg.LossProb > 0; lossy != (parallel == 0) {
				t.Fatalf("%d of %d cycles attended in parallel (loss process: %v)", parallel, len(sharded.Cycles), lossy)
			}
			if !reflect.DeepEqual(serial.Clients, sharded.Clients) {
				for i := range serial.Clients {
					if !reflect.DeepEqual(serial.Clients[i], sharded.Clients[i]) {
						t.Fatalf("client %d: serial %+v, sharded %+v", i, serial.Clients[i], sharded.Clients[i])
					}
				}
				t.Fatal("client stats differ")
			}
			if !reflect.DeepEqual(serial.Cycles, sharded.Cycles) {
				t.Fatal("cycle stats differ")
			}
		})
	}
}
