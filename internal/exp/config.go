// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§4) — Fig. 9 (index pruning), Fig. 10
// (one-tier vs two-tier index size), Fig. 11 (tuning time) and the headline
// claims — plus this repository's own ablations (scheduler, packet size,
// accounting model). Each experiment returns a stats.Table whose rows mirror
// the series the paper plots.
package exp

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Param identifies the swept workload parameter of Figs. 9 and 11.
type Param int

const (
	// ParamNQ sweeps N_Q, the number of pending queries.
	ParamNQ Param = iota + 1
	// ParamP sweeps P, the wildcard probability.
	ParamP
	// ParamDQ sweeps D_Q, the maximum query depth.
	ParamDQ
)

// String names the parameter as the paper does.
func (p Param) String() string {
	switch p {
	case ParamNQ:
		return "N_Q"
	case ParamP:
		return "P"
	case ParamDQ:
		return "D_Q"
	default:
		return fmt.Sprintf("Param(%d)", int(p))
	}
}

// Config fixes the experimental setup (the reconstruction of Table 2; the
// published table is OCR-degraded, see DESIGN.md §3).
type Config struct {
	// Schema names the document set: "nitf" (default) or "nasa".
	Schema string
	// NumDocs is the collection size (paper: 100 generated documents).
	NumDocs int
	// TextScale scales document text volume; the default targets the
	// paper's ~10 KB average document.
	TextScale float64
	// NQ is the default number of pending queries (N_Q).
	NQ int
	// P is the default wildcard probability. Zero is a legal value (no
	// wildcard steps), so only the wholly zero Config takes Default's P.
	P float64
	// DQ is the default maximum query depth (D_Q).
	DQ int
	// CycleCapacity is the per-cycle document budget in bytes (the paper's
	// ~100 KB average broadcast cycle).
	CycleCapacity int
	// Channels is the number of parallel broadcast channels K at fixed
	// aggregate bandwidth (sim.Config.Channels). Zero or one keeps the
	// paper's single-channel model; K > 1 applies to two-tier runs only.
	Channels int
	// IndexEncoding selects the first-tier wire layout of two-tier runs
	// (sim.Config.IndexEncoding): the node-pointer stream (zero value) or
	// the succinct balanced-parentheses tier. One-tier legs ignore it.
	IndexEncoding core.IndexEncoding
	// Scheduler names the scheduling policy (default "leelo", the paper's
	// choice [8]).
	Scheduler string
	// Model fixes on-air widths (default: §4.1 values).
	Model core.SizeModel
	// DeepQueries makes every generated query as deep as D_Q allows
	// (gen.QueryConfig.DepthExact): the regime in which D_Q acts as a pure
	// selectivity knob, used by the fig9c-deep / fig11c-deep experiments.
	DeepQueries bool
	// ArrivalSpacing is the byte gap between consecutive request arrivals;
	// small values approximate the paper's "N_Q pending queries" regime.
	ArrivalSpacing int64
	// DocSeed and QuerySeed make runs reproducible.
	DocSeed, QuerySeed int64
	// Limits bounds engine memory in every simulation this config drives
	// (see engine.Limits). The zero value imposes no limits.
	Limits engine.Limits
	// Compress models the netcast transport's per-frame DEFLATE in every
	// simulation this config drives (sim.Config.Compress): cycles are
	// accounted at transport-envelope size and index reads are whole
	// compressed segments. Incompatible with Channels > 1.
	Compress bool
}

// Default returns the reconstructed Table 2 setup.
func Default() Config {
	return Config{
		Schema:         "nitf",
		NumDocs:        100,
		TextScale:      2.1,
		NQ:             500,
		P:              0.1,
		DQ:             5,
		CycleCapacity:  100_000,
		Scheduler:      "leelo",
		Model:          core.DefaultSizeModel(),
		ArrivalSpacing: 100,
		DocSeed:        1,
		QuerySeed:      2,
	}
}

// documents generates (deterministically) the configured collection.
func (c Config) documents() (*xmldoc.Collection, error) {
	schema := dtd.ByName(c.Schema)
	if schema == nil {
		return nil, fmt.Errorf("exp: unknown schema %q", c.Schema)
	}
	return gen.Documents(gen.DocConfig{
		Schema:    schema,
		NumDocs:   c.NumDocs,
		TextScale: c.TextScale,
		Seed:      c.DocSeed,
	})
}

// queries generates a query batch with the given workload parameters.
func (c Config) queries(coll *xmldoc.Collection, nq int, p float64, dq int) ([]xpath.Path, error) {
	return gen.Queries(coll, gen.QueryConfig{
		NumQueries:   nq,
		MaxDepth:     dq,
		WildcardProb: p,
		DepthExact:   c.DeepQueries,
		Seed:         c.QuerySeed,
	})
}

// requests turns a query batch into client requests with staggered arrivals.
func (c Config) requests(queries []xpath.Path) []sim.ClientRequest {
	reqs := make([]sim.ClientRequest, len(queries))
	for i, q := range queries {
		reqs[i] = sim.ClientRequest{Query: q, Arrival: int64(i) * c.ArrivalSpacing}
	}
	return reqs
}

// simConfig is the one place an experiment Config becomes a simulator
// Config: every knob the harness threads through (size model, capacity,
// limits, compression, channel count, index encoding) is copied here, so an
// experiment overrides only the field it sweeps. The one-tier organisation
// has no channel directory to hop with and no succinct layout, so Channels
// and IndexEncoding apply to two-tier legs only.
func (c Config) simConfig(coll *xmldoc.Collection, mode broadcast.Mode, sched schedule.Scheduler, reqs []sim.ClientRequest) sim.Config {
	sc := sim.Config{
		Collection:    coll,
		Model:         c.Model,
		Mode:          mode,
		Scheduler:     sched,
		CycleCapacity: c.CycleCapacity,
		Requests:      reqs,
		Limits:        c.Limits,
		Compress:      c.Compress,
	}
	if mode == broadcast.TwoTierMode {
		sc.Channels = c.Channels
		sc.IndexEncoding = c.IndexEncoding
	}
	return sc
}

// scheduler resolves the configured policy.
func (c Config) scheduler() (schedule.Scheduler, error) {
	name := c.Scheduler
	if name == "" {
		name = "leelo"
	}
	return schedule.New(name)
}

// withDefaults fills zero fields from Default. P is the exception: an
// explicit zero is meaningful, so it is defaulted only when the whole Config
// is the zero value.
func (c Config) withDefaults() Config {
	d := Default()
	if c == (Config{}) {
		return d
	}
	if c.Schema == "" {
		c.Schema = d.Schema
	}
	if c.NumDocs == 0 {
		c.NumDocs = d.NumDocs
	}
	if c.TextScale == 0 {
		c.TextScale = d.TextScale
	}
	if c.NQ == 0 {
		c.NQ = d.NQ
	}
	if c.DQ == 0 {
		c.DQ = d.DQ
	}
	if c.CycleCapacity == 0 {
		c.CycleCapacity = d.CycleCapacity
	}
	if c.Scheduler == "" {
		c.Scheduler = d.Scheduler
	}
	if c.Model == (core.SizeModel{}) {
		c.Model = d.Model
	}
	if c.ArrivalSpacing == 0 {
		c.ArrivalSpacing = d.ArrivalSpacing
	}
	if c.DocSeed == 0 {
		c.DocSeed = d.DocSeed
	}
	if c.QuerySeed == 0 {
		c.QuerySeed = d.QuerySeed
	}
	return c
}

// workloadAt applies a sweep point to the default workload parameters.
func (c Config) workloadAt(param Param, v float64) (nq int, p float64, dq int, err error) {
	nq, p, dq = c.NQ, c.P, c.DQ
	switch param {
	case ParamNQ:
		nq = int(v)
	case ParamP:
		p = v
	case ParamDQ:
		dq = int(v)
	default:
		return 0, 0, 0, fmt.Errorf("exp: unknown parameter %d", int(param))
	}
	return nq, p, dq, nil
}

// DefaultSweep returns the sweep values used for a parameter when the caller
// does not supply any: the reconstruction of the paper's x-axes.
func DefaultSweep(param Param) []float64 {
	switch param {
	case ParamNQ:
		return []float64{100, 250, 500, 750, 1000}
	case ParamP:
		return []float64{0, 0.05, 0.1, 0.2, 0.3}
	case ParamDQ:
		return []float64{2, 3, 4, 5, 6, 7, 8}
	default:
		return nil
	}
}
