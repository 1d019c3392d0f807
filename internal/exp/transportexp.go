package exp

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TransportCompression is the ext-transport experiment: the same workload
// simulated with the transport's per-frame DEFLATE off and on across a
// document-size sweep (TextScale multiplies each document's text volume).
// Larger documents deflate better, so the cycle-length ratio should fall as
// documents grow, and access time at fixed bandwidth should follow the
// cycle shrinkage.
func TransportCompression(cfg Config, textScales []float64) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	if textScales == nil {
		textScales = []float64{1.0, 2.1, 4.0, 8.0}
	}
	tbl := &stats.Table{
		Title: "Extension — per-frame DEFLATE transport vs bare wire (two-tier, document-size sweep)",
		Columns: []string{"textScale", "avg doc B", "cycle plain", "cycle comp", "ratio",
			"TT plain", "TT comp", "access plain", "access comp"},
	}
	for _, scale := range textScales {
		c := cfg
		c.TextScale = scale
		coll, err := c.documents()
		if err != nil {
			return nil, fmt.Errorf("exp: transport scale=%g: %w", scale, err)
		}
		queries, err := c.queries(coll, c.NQ, c.P, c.DQ)
		if err != nil {
			return nil, fmt.Errorf("exp: transport scale=%g: %w", scale, err)
		}
		var results [2]*sim.Result
		for i, compress := range []bool{false, true} {
			sched, err := c.scheduler()
			if err != nil {
				return nil, err
			}
			sc := c.simConfig(coll, broadcast.TwoTierMode, sched, c.requests(queries))
			sc.Compress = compress
			results[i], err = sim.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("exp: transport scale=%g compress=%v: %w", scale, compress, err)
			}
		}
		plain, comp := results[0], results[1]
		tbl.AddRow(scale, coll.TotalSize()/coll.Len(),
			plain.MeanCycleBytes(), comp.MeanCycleBytes(),
			comp.MeanCycleBytes()/plain.MeanCycleBytes(),
			plain.MeanTuningBytes(), comp.MeanTuningBytes(),
			plain.MeanAccessBytes(), comp.MeanAccessBytes())
	}
	return tbl, nil
}
