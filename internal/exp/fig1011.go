package exp

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/sim"
	"repro/internal/stats"
)

// modeRun runs the full simulation at one sweep point under one mode.
func (c Config) modeRun(mode broadcast.Mode, nq int, p float64, dq int) (*sim.Result, error) {
	coll, err := c.documents()
	if err != nil {
		return nil, err
	}
	queries, err := c.queries(coll, nq, p, dq)
	if err != nil {
		return nil, err
	}
	sched, err := c.scheduler()
	if err != nil {
		return nil, err
	}
	return sim.Run(c.simConfig(coll, mode, sched, c.requests(queries)))
}

// Fig10 reproduces Fig. 10: the per-cycle index size broadcast under the
// one-tier organisation vs the two-tier organisation (first tier + second
// tier), from full simulation runs across the N_Q sweep.
func Fig10(cfg Config, values []float64) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	if values == nil {
		values = DefaultSweep(ParamNQ)
	}
	tbl := &stats.Table{
		Title: "Fig. 10 — on-air index size per cycle: one-tier vs two-tier (bytes)",
		Columns: []string{"N_Q", "one-tier L_I", "two-tier L_I", "L_O", "two-tier total",
			"saving(%)"},
	}
	for _, v := range values {
		nq := int(v)
		one, err := cfg.modeRun(broadcast.OneTierMode, nq, cfg.P, cfg.DQ)
		if err != nil {
			return nil, fmt.Errorf("exp: fig10 one-tier N_Q=%d: %w", nq, err)
		}
		two, err := cfg.modeRun(broadcast.TwoTierMode, nq, cfg.P, cfg.DQ)
		if err != nil {
			return nil, fmt.Errorf("exp: fig10 two-tier N_Q=%d: %w", nq, err)
		}
		oneSize := one.MeanIndexBytes()
		twoSize := two.MeanIndexBytes() + two.MeanSecondTierBytes()
		tbl.AddRow(v, oneSize, two.MeanIndexBytes(), two.MeanSecondTierBytes(), twoSize,
			100*(oneSize-twoSize)/oneSize)
	}
	return tbl, nil
}

// Fig11 reproduces Fig. 11(a/b/c): the tuning time spent on index lookup
// under the one-tier vs the two-tier access protocol, as one workload
// parameter sweeps. Units are bytes (§4.1: constant bandwidth). Document
// retrieval time is excluded, as in the paper.
func Fig11(cfg Config, param Param, values []float64) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	if values == nil {
		values = DefaultSweep(param)
	}
	tbl := &stats.Table{
		Title: fmt.Sprintf("Fig. 11 — index-lookup tuning time vs %s (bytes)", param),
		Columns: []string{param.String(), "one-tier TT", "two-tier TT", "ratio",
			"cycles/query", "access one-tier", "access two-tier"},
	}
	for _, v := range values {
		nq, p, dq, err := cfg.workloadAt(param, v)
		if err != nil {
			return nil, err
		}
		one, err := cfg.modeRun(broadcast.OneTierMode, nq, p, dq)
		if err != nil {
			return nil, fmt.Errorf("exp: fig11 one-tier %s=%v: %w", param, v, err)
		}
		two, err := cfg.modeRun(broadcast.TwoTierMode, nq, p, dq)
		if err != nil {
			return nil, fmt.Errorf("exp: fig11 two-tier %s=%v: %w", param, v, err)
		}
		oneTT := one.MeanIndexTuningBytes()
		twoTT := two.MeanIndexTuningBytes()
		tbl.AddRow(v, oneTT, twoTT, oneTT/twoTT, two.MeanCyclesListened(),
			one.MeanAccessBytes(), two.MeanAccessBytes())
	}
	return tbl, nil
}
