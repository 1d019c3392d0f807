package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire"
	"repro/internal/xmldoc"
)

// TestOverlapMatchesSerial: a run that assembles each cycle while the one
// before is attended, the ledger committing without waiting for the clients,
// ends exactly as the serial order does — the clients attend inside the
// cycle's air and report what they missed before the commit — client for
// client, cycle for cycle and frame byte for frame byte, on every lossless
// leg, single-channel and multichannel. A lossy run never overlaps; at K = 4
// its clients report Missed, which splits classes whose admission cycle keys
// the ledger's commitment.
func TestOverlapMatchesSerial(t *testing.T) {
	c, reqs := workload(t, 40, 1000, 13)
	base := Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacityFor(c), Requests: reqs}
	legs := []struct {
		name    string
		cfg     func(*Config)
		overlap bool
	}{
		{"two_tier", func(*Config) {}, true},
		{"one_tier", func(c *Config) { c.Mode = broadcast.OneTierMode }, true},
		{"succinct", func(c *Config) { c.IndexEncoding = core.EncodingSuccinct }, true},
		{"compress", func(c *Config) { c.Compress = true }, true},
		{"whole_tier", func(c *Config) { c.WholeTierRead = true }, true},
		// Documents are evicted from the payload cache while an earlier
		// cycle's clients still read their frames.
		{"evicting", func(c *Config) { c.Limits.MaxPayloadCacheBytes = 4 << 10 }, true},
		{"k4", func(c *Config) { c.Channels = 4 }, true},
		{"loss", func(c *Config) { c.LossProb, c.LossSeed = 0.2, 3 }, false},
		{"k4_loss", func(c *Config) { c.Channels, c.LossProb, c.LossSeed = 4, 0.2, 3 }, false},
	}
	defer func(f func(*Config) bool) { overlapCycles = f }(overlapCycles)
	defer func(f func(int) int) { attendShards = f }(attendShards)
	attendShards = func(n int) int { return min(n, 4) } // the attending cycle's clients on goroutines of their own too
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			run := func(overlap func(*Config) bool) (*Result, [][][]byte) {
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
				overlapCycles = overlap
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, air
			}
			serial, serialAir := run(func(*Config) bool { return false })
			overlapped := false
			res, air := run(func(cfg *Config) bool {
				overlapped = defaultOverlap(cfg)
				return overlapped
			})
			if overlapped != leg.overlap {
				t.Fatalf("overlapped %v, want %v", overlapped, leg.overlap)
			}
			if leg.name == "evicting" && res.Engine.PayloadEvictions == 0 {
				t.Fatal("no payload evictions")
			}
			if !reflect.DeepEqual(serial.Clients, res.Clients) {
				for i := range serial.Clients {
					if !reflect.DeepEqual(serial.Clients[i], res.Clients[i]) {
						t.Fatalf("client %d: serial %+v, overlapped %+v", i, serial.Clients[i], res.Clients[i])
					}
				}
				t.Fatal("client stats differ")
			}
			if !reflect.DeepEqual(serial.Cycles, res.Cycles) {
				t.Fatal("cycle stats differ")
			}
			if !reflect.DeepEqual(serialAir, air) {
				t.Fatal("frames on air differ")
			}
		})
	}
}

// defaultOverlap is overlapCycles as the package sets it.
var defaultOverlap = overlapCycles

// TestOverlapBeliefDivergence: clients that stop receiving what the server
// believes aired fail the run, naming a client.
func TestOverlapBeliefDivergence(t *testing.T) {
	c, reqs := workload(t, 20, 200, 5)
	defer func(d func(wire.FrameType, []byte, int64, core.SizeModel) (access.Frame, error)) { decodeFrame = d }(decodeFrame)
	decodeFrame = func(typ wire.FrameType, p []byte, air int64, m core.SizeModel) (access.Frame, error) {
		f, err := access.Decode(typ, p, air, m)
		if typ == wire.FrameDoc {
			f.Doc = ^xmldoc.DocID(0) // no client wants it: every document airs unreceived
		}
		return f, err
	}
	_, err := Run(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacityFor(c), Requests: reqs, MaxCycles: 500})
	if err == nil || !strings.Contains(err.Error(), "client ") || !strings.Contains(err.Error(), "the server believes") {
		t.Fatalf("Run with clients receiving nothing: %v", err)
	}
}
