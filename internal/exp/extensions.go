package exp

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/stats"
)

// QuerySkew studies the impact of the user query pattern on system
// performance — the paper's §5 names exactly this as future work. A fixed
// pool of distinct queries is requested by N_Q clients whose popularity
// follows a Zipf law of varying skew; both protocols are simulated.
func QuerySkew(cfg Config, skews []float64) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	if skews == nil {
		skews = []float64{0, 1.2, 1.5, 2.0}
	}
	coll, err := cfg.documents()
	if err != nil {
		return nil, err
	}
	pool, err := cfg.queries(coll, 50, cfg.P, cfg.DQ)
	if err != nil {
		return nil, err
	}
	sched, err := cfg.scheduler()
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title: "Extension — query-pattern skew (paper §5 future work); 0 = uniform",
		Columns: []string{"zipf s", "TT one-tier", "TT two-tier", "ratio",
			"access two-tier", "cycles/query", "cycles total"},
	}
	for _, s := range skews {
		qs, err := gen.Requests(pool, gen.WorkloadConfig{NumRequests: cfg.NQ, ZipfS: s, Seed: cfg.QuerySeed + 7})
		if err != nil {
			return nil, fmt.Errorf("exp: skew %v: %w", s, err)
		}
		reqs := cfg.requests(qs)
		var results [2]*sim.Result
		for i, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
			results[i], err = sim.Run(cfg.simConfig(coll, mode, sched, reqs))
			if err != nil {
				return nil, fmt.Errorf("exp: skew %v: %w", s, err)
			}
		}
		one, two := results[0], results[1]
		tbl.AddRow(s, one.MeanIndexTuningBytes(), two.MeanIndexTuningBytes(),
			one.MeanIndexTuningBytes()/two.MeanIndexTuningBytes(),
			two.MeanAccessBytes(), two.MeanCyclesListened(), two.NumCycles())
	}
	return tbl, nil
}

// ChannelLoss injects wireless reception failures and shows how both
// protocols degrade: the two-tier client retries cheap second-tier reads
// while the one-tier client repeats full index navigations.
func ChannelLoss(cfg Config, probs []float64) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	if probs == nil {
		probs = []float64{0, 0.05, 0.1, 0.2}
	}
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
		Title: "Extension — lossy channel (reception failure probability per read)",
		Columns: []string{"loss", "TT one-tier", "TT two-tier", "ratio",
			"access one-tier", "access two-tier"},
	}
	for _, p := range probs {
		var tt, access [2]float64
		for i, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
			sc := cfg.simConfig(coll, mode, sched, cfg.requests(queries))
			sc.LossProb = p
			sc.LossSeed = cfg.QuerySeed + 13
			res, err := sim.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("exp: loss %v: %w", p, err)
			}
			tt[i] = res.MeanIndexTuningBytes()
			access[i] = res.MeanAccessBytes()
		}
		tbl.AddRow(p, tt[0], tt[1], tt[0]/tt[1], access[0], access[1])
	}
	return tbl, nil
}

// ArrivalPattern compares arrival processes: the harness default (evenly
// spaced, approximating the paper's "N_Q pending per cycle" regime), a batch
// (all requests at once) and Poisson arrivals at the same mean rate. The
// two-tier protocol's advantage must not depend on how requests arrive.
func ArrivalPattern(cfg Config) (*stats.Table, error) {
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
	poisson, err := gen.PoissonArrivals(len(queries), float64(cfg.ArrivalSpacing), cfg.QuerySeed+17)
	if err != nil {
		return nil, err
	}
	patterns := []struct {
		name    string
		arrival func(i int) int64
	}{
		{"even", func(i int) int64 { return int64(i) * cfg.ArrivalSpacing }},
		{"batch", func(int) int64 { return 0 }},
		{"poisson", func(i int) int64 { return poisson[i] }},
	}
	tbl := &stats.Table{
		Title:   "Extension — request arrival pattern (same mean rate)",
		Columns: []string{"arrivals", "TT one-tier", "TT two-tier", "ratio", "access two-tier"},
	}
	for _, pat := range patterns {
		reqs := make([]sim.ClientRequest, len(queries))
		for i, q := range queries {
			reqs[i] = sim.ClientRequest{Query: q, Arrival: pat.arrival(i)}
		}
		var tt, access [2]float64
		for i, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
			res, err := sim.Run(cfg.simConfig(coll, mode, sched, reqs))
			if err != nil {
				return nil, fmt.Errorf("exp: arrivals %s: %w", pat.name, err)
			}
			tt[i] = res.MeanIndexTuningBytes()
			access[i] = res.MeanAccessBytes()
		}
		tbl.AddRow(pat.name, tt[0], tt[1], tt[0]/tt[1], access[1])
	}
	return tbl, nil
}

// Energy converts the default workload's outcomes into joules per query
// under a typical-era radio model, for the one-tier, two-tier and
// per-document [2] organisations. This is the metric the tuning-time proxy
// stands for.
func Energy(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	one, err := cfg.modeRun(broadcast.OneTierMode, cfg.NQ, cfg.P, cfg.DQ)
	if err != nil {
		return nil, err
	}
	two, err := cfg.modeRun(broadcast.TwoTierMode, cfg.NQ, cfg.P, cfg.DQ)
	if err != nil {
		return nil, err
	}
	em := sim.DefaultEnergyModel()
	e1, err := one.MeanEnergyJoules(em)
	if err != nil {
		return nil, err
	}
	e2, err := two.MeanEnergyJoules(em)
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title: fmt.Sprintf("Extension — energy per query (%.0f mW active, %.2f mW doze, %.0f Mbit/s)",
			em.ActiveWatts*1000, em.DozeWatts*1000, em.BandwidthBps/1e6),
		Columns: []string{"organisation", "index TT (B)", "doc TT (B)", "energy (mJ)"},
	}
	tbl.AddRow("one-tier", one.MeanIndexTuningBytes(), one.MeanDocTuningBytes(), 1000*e1)
	tbl.AddRow("two-tier", two.MeanIndexTuningBytes(), two.MeanDocTuningBytes(), 1000*e2)
	return tbl, nil
}
