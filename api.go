package repro

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/netcast"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// ParseQuery parses a simple XPath expression such as "/a/b", "/a//c" or
// "/a/c/*".
func ParseQuery(expr string) (Query, error) { return xpath.Parse(expr) }

// MustParseQuery is ParseQuery for static expressions; it panics on error.
func MustParseQuery(expr string) Query { return xpath.MustParse(expr) }

// ParseDocument parses one XML document from r.
func ParseDocument(id DocID, r io.Reader) (*Document, error) {
	root, err := xmldoc.Parse(r)
	if err != nil {
		return nil, err
	}
	return xmldoc.NewDocument(id, root), nil
}

// NewCollection builds a collection from documents with unique IDs.
func NewCollection(docs []*Document) (*Collection, error) { return xmldoc.NewCollection(docs) }

// LoadCollection builds a collection from the .xml files of a directory,
// ordered by file name and assigned IDs 1..n.
func LoadCollection(dir string) (*Collection, error) { return xmldoc.LoadDir(dir) }

// GenerateDocuments produces a synthetic collection from a built-in schema
// (NITFSchema or NASASchema), deterministically for a given seed.
func GenerateDocuments(schema string, numDocs int, seed int64) (*Collection, error) {
	s := dtd.ByName(schema)
	if s == nil {
		return nil, fmt.Errorf("repro: unknown schema %q (have %q, %q)", schema, NITFSchema, NASASchema)
	}
	return gen.Documents(gen.DocConfig{Schema: s, NumDocs: numDocs, Seed: seed})
}

// GenerateQueries produces numQueries satisfiable queries over the
// collection with the paper's workload parameters: maxDepth is D_Q and
// wildcardProb is P.
func GenerateQueries(c *Collection, numQueries, maxDepth int, wildcardProb float64, seed int64) ([]Query, error) {
	return gen.Queries(c, gen.QueryConfig{
		NumQueries:   numQueries,
		MaxDepth:     maxDepth,
		WildcardProb: wildcardProb,
		Seed:         seed,
	})
}

// GenerateWorkload draws numRequests client requests from a query pool.
// zipfS > 1 skews popularity Zipf-style (popular queries are requested by
// many clients); zipfS == 0 draws uniformly. Arrivals are spaced
// arrivalSpacing bytes apart.
func GenerateWorkload(pool []Query, numRequests int, zipfS float64, arrivalSpacing, seed int64) ([]ClientRequest, error) {
	qs, err := gen.Requests(pool, gen.WorkloadConfig{NumRequests: numRequests, ZipfS: zipfS, Seed: seed})
	if err != nil {
		return nil, err
	}
	reqs := make([]ClientRequest, len(qs))
	for i, q := range qs {
		reqs[i] = ClientRequest{Query: q, Arrival: int64(i) * arrivalSpacing}
	}
	return reqs, nil
}

// BuildIndex constructs the Compact Index of a collection under the default
// size model. Use BuildIndexWithModel to override widths.
func BuildIndex(c *Collection) (*Index, error) {
	return core.BuildCI(c, core.DefaultSizeModel())
}

// BuildIndexWithModel constructs the Compact Index under a custom size
// model.
func BuildIndexWithModel(c *Collection, m SizeModel) (*Index, error) {
	return core.BuildCI(c, m)
}

// SaveIndex writes an index to w as a one-cycle broadcast capture in the
// given tier's packed layout: the cycle head and the index frame a client
// reads off the air. LoadIndex is the inverse. An index built under a
// non-default size model is refused: a capture carries no model.
func SaveIndex(w io.Writer, ix *Index, tier core.Tier) error {
	return netcast.WriteIndexSnapshot(w, ix, tier)
}

// LoadIndex reads a one-cycle capture, such as SaveIndex writes, returning
// the cycle's index and the tier it was packed under.
func LoadIndex(r io.Reader) (*Index, core.Tier, error) {
	recs, err := netcast.ReadCapture(r)
	if err != nil {
		return nil, 0, err
	}
	if len(recs) != 1 {
		return nil, 0, fmt.Errorf("repro: an index snapshot holds one cycle, the capture holds %d", len(recs))
	}
	ix, err := recs[0].DecodeIndex(core.DefaultSizeModel())
	if err != nil {
		return nil, 0, err
	}
	if recs[0].TwoTier {
		return ix, core.FirstTier, nil
	}
	return ix, core.OneTier, nil
}

// FilterDocuments evaluates a query set over the collection with the shared
// NFA filter (the server-side YFilter step), returning one sorted DocID
// slice per query.
func FilterDocuments(c *Collection, queries []Query) [][]DocID {
	return yfilter.New(queries).Filter(c)
}

// NewScheduler returns a broadcast scheduler by name: "leelo" (the paper's
// policy), "fcfs", "mrf" or "rxw".
func NewScheduler(name string) (Scheduler, error) { return schedule.New(name) }

// SchedulerNames lists the available scheduling policies.
func SchedulerNames() []string { return schedule.Names() }

// Simulate runs the discrete-event broadcast simulation to completion.
func Simulate(cfg SimulationConfig) (*SimulationResult, error) { return sim.Run(cfg) }

// RunRestartSim executes a deterministic cycle-clocked broadcast run over a
// durability journal. With CrashSeed or TornAfter set, the run is killed
// mid-pipeline, recovered from the journal, and resumed; its per-cycle wire
// hashes and pending keys must match a crash-free control run of the same
// script (the crash-equivalence property the journal guarantees).
func RunRestartSim(cfg RestartSimConfig) (*RestartSimResult, error) { return sim.RunRestart(cfg) }

// RestartScript builds RunRestartSim's admission script from a query set:
// queries that match nothing are dropped and the rest are dealt over the
// first two thirds of the cycles.
func RestartScript(c *Collection, queries []Query, cycles int64) []ScriptedRequest {
	return sim.RestartScript(c, queries, cycles)
}

// Experiments lists every reproducible table and figure of the paper's
// evaluation (plus this repository's ablations) in execution order.
func Experiments() []Experiment { return exp.Experiments() }

// RunExperiment executes one experiment by ID (e.g. "fig11a") under the
// given configuration and returns its result table.
func RunExperiment(id string, cfg ExperimentConfig) (*ResultTable, error) {
	e, err := exp.Find(id)
	if err != nil {
		return nil, err
	}
	return e.Run(cfg)
}

// RunAllExperiments executes every experiment and writes the rendered
// tables to w.
func RunAllExperiments(w io.Writer, cfg ExperimentConfig) error { return exp.RunAll(w, cfg) }
