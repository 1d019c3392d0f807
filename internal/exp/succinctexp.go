package exp

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SuccinctEncoding compares the two first-tier wire layouts — the
// node-pointer stream and the balanced-parentheses succinct tier — across a
// document-scale sweep: the same two-tier workload is simulated under both
// encodings at each collection size. A smaller index segment shortens every
// cycle, so at fixed bandwidth the succinct leg should improve index tuning
// time (and with it access time) by at least the segment's shrinkage; the
// sweep shows the gap as the structural share of the index grows with the
// collection.
func SuccinctEncoding(cfg Config, numDocs []int) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	if numDocs == nil {
		numDocs = []int{25, 50, 100, 200}
	}
	tbl := &stats.Table{
		Title: "Extension — succinct first tier vs node-pointer stream (two-tier, document-scale sweep)",
		Columns: []string{"docs", "L_I node", "L_I succ", "size ratio",
			"TT node", "TT succ", "TT ratio", "access succ"},
	}
	for _, n := range numDocs {
		c := cfg
		c.NumDocs = n
		coll, err := c.documents()
		if err != nil {
			return nil, fmt.Errorf("exp: succinct docs=%d: %w", n, err)
		}
		queries, err := c.queries(coll, c.NQ, c.P, c.DQ)
		if err != nil {
			return nil, fmt.Errorf("exp: succinct docs=%d: %w", n, err)
		}
		var results [2]*sim.Result
		for i, enc := range []core.IndexEncoding{core.EncodingNode, core.EncodingSuccinct} {
			sched, err := c.scheduler()
			if err != nil {
				return nil, err
			}
			sc := c.simConfig(coll, broadcast.TwoTierMode, sched, c.requests(queries))
			sc.IndexEncoding = enc
			results[i], err = sim.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("exp: succinct docs=%d enc=%s: %w", n, enc, err)
			}
		}
		node, succ := results[0], results[1]
		tbl.AddRow(n,
			node.MeanIndexBytes(), succ.MeanIndexBytes(),
			succ.MeanIndexBytes()/node.MeanIndexBytes(),
			node.MeanIndexTuningBytes(), succ.MeanIndexTuningBytes(),
			succ.MeanIndexTuningBytes()/node.MeanIndexTuningBytes(),
			succ.MeanAccessBytes())
	}
	return tbl, nil
}
