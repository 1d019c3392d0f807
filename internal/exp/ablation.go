package exp

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AblationSchedulers shows the two-tier advantage is scheduler-robust: for
// every scheduling policy, both protocols are simulated on the default
// workload and their tuning/access metrics compared.
func AblationSchedulers(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	tbl := &stats.Table{
		Title: "Ablation — scheduler choice (default workload)",
		Columns: []string{"scheduler", "TT one-tier", "TT two-tier", "ratio",
			"access two-tier", "cycles/query"},
	}
	for _, name := range schedule.Names() {
		c := cfg
		c.Scheduler = name
		one, err := c.modeRun(broadcast.OneTierMode, c.NQ, c.P, c.DQ)
		if err != nil {
			return nil, fmt.Errorf("exp: ablation %s: %w", name, err)
		}
		two, err := c.modeRun(broadcast.TwoTierMode, c.NQ, c.P, c.DQ)
		if err != nil {
			return nil, fmt.Errorf("exp: ablation %s: %w", name, err)
		}
		tbl.AddRow(name, one.MeanIndexTuningBytes(), two.MeanIndexTuningBytes(),
			one.MeanIndexTuningBytes()/two.MeanIndexTuningBytes(),
			two.MeanAccessBytes(), two.MeanCyclesListened())
	}
	return tbl, nil
}

// AblationPacketSize sweeps the broadcast packet size, a design constant the
// paper fixes at 128 B (§3.1), showing how packing granularity trades index
// padding against lookup selectivity.
func AblationPacketSize(cfg Config, sizes []int) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	if sizes == nil {
		sizes = []int{64, 128, 256, 512}
	}
	tbl := &stats.Table{
		Title:   "Ablation — packet size (two-tier vs one-tier tuning, bytes)",
		Columns: []string{"packet(B)", "TT one-tier", "TT two-tier", "one-tier L_I", "two-tier L_I+L_O"},
	}
	for _, pb := range sizes {
		c := cfg
		c.Model.PacketBytes = pb
		one, err := c.modeRun(broadcast.OneTierMode, c.NQ, c.P, c.DQ)
		if err != nil {
			return nil, fmt.Errorf("exp: packet %d: %w", pb, err)
		}
		two, err := c.modeRun(broadcast.TwoTierMode, c.NQ, c.P, c.DQ)
		if err != nil {
			return nil, fmt.Errorf("exp: packet %d: %w", pb, err)
		}
		tbl.AddRow(pb, one.MeanIndexTuningBytes(), two.MeanIndexTuningBytes(),
			one.MeanIndexBytes(), two.MeanIndexBytes()+two.MeanSecondTierBytes())
	}
	return tbl, nil
}

// AblationPackingOrder compares the paper's depth-first packing (§3.1)
// against a breadth-first layout: one navigation per pending query over the
// PCI, costed as distinct packets touched. DFS keeps match subtrees
// contiguous, which is why the paper packs in DFS order.
func AblationPackingOrder(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	coll, err := cfg.documents()
	if err != nil {
		return nil, err
	}
	ci, err := core.BuildCI(coll, cfg.Model)
	if err != nil {
		return nil, err
	}
	queries, err := cfg.queries(coll, cfg.NQ, cfg.P, cfg.DQ)
	if err != nil {
		return nil, err
	}
	pci, _, err := ci.Prune(queries)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:   "Ablation — packing order (mean packets per lookup, first tier)",
		Columns: []string{"order", "packets/lookup", "bytes/lookup", "index packets"},
	}
	for _, order := range []core.PackOrder{core.PackDFS, core.PackBFS} {
		p := pci.PackOrdered(core.FirstTier, order)
		totalPackets := 0
		for _, q := range queries {
			res := pci.Lookup(q)
			totalPackets += p.PacketsFor(res.Visited)
		}
		mean := float64(totalPackets) / float64(len(queries))
		tbl.AddRow(order.String(), mean, mean*float64(cfg.Model.PacketBytes), p.NumPackets)
	}
	return tbl, nil
}

// AblationAccounting compares packet-granular lookup accounting against the
// paper's whole-tier analytic model (Eq. 1): the two-tier advantage holds
// under both.
func AblationAccounting(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	coll, err := cfg.documents()
	if err != nil {
		return nil, err
	}
	queries, err := cfg.queries(coll, cfg.NQ, cfg.P, cfg.DQ)
	if err != nil {
		return nil, err
	}
	sched, err := cfg.scheduler()
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:   "Ablation — lookup accounting model",
		Columns: []string{"accounting", "TT one-tier", "TT two-tier", "ratio"},
	}
	for _, whole := range []bool{false, true} {
		var tt [2]float64
		for i, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
			sc := cfg.simConfig(coll, mode, sched, cfg.requests(queries))
			sc.WholeTierRead = whole
			res, err := sim.Run(sc)
			if err != nil {
				return nil, err
			}
			tt[i] = res.MeanIndexTuningBytes()
		}
		name := "packet-granular"
		if whole {
			name = "whole-tier (Eq. 1)"
		}
		tbl.AddRow(name, tt[0], tt[1], tt[0]/tt[1])
	}
	return tbl, nil
}
