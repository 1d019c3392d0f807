package exp

import (
	"fmt"
	"io"

	"repro/internal/stats"
)

// Experiment is one runnable evaluation unit addressable by ID from the
// bcast-exp command.
type Experiment struct {
	// ID is the command-line name (e.g. "fig9a").
	ID string
	// Desc summarises what the experiment reproduces.
	Desc string
	// Run executes the experiment under the configuration.
	Run func(Config) (*stats.Table, error)
}

// Experiments lists every reproducible table and figure in execution order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "setup", Desc: "Table 2 — experimental setup (reconstruction)", Run: Setup},
		{ID: "fig9a", Desc: "Fig. 9(a) — index size, CI vs PCI, over N_Q", Run: func(c Config) (*stats.Table, error) {
			return Fig9(c, ParamNQ, nil)
		}},
		{ID: "fig9b", Desc: "Fig. 9(b) — index size, CI vs PCI, over P", Run: func(c Config) (*stats.Table, error) {
			return Fig9(c, ParamP, nil)
		}},
		{ID: "fig9c", Desc: "Fig. 9(c) — index size, CI vs PCI, over D_Q", Run: func(c Config) (*stats.Table, error) {
			return Fig9(c, ParamDQ, nil)
		}},
		{ID: "fig10", Desc: "Fig. 10 — index size, one-tier vs two-tier", Run: func(c Config) (*stats.Table, error) {
			return Fig10(c, nil)
		}},
		{ID: "fig11a", Desc: "Fig. 11(a) — tuning time over N_Q", Run: func(c Config) (*stats.Table, error) {
			return Fig11(c, ParamNQ, nil)
		}},
		{ID: "fig11b", Desc: "Fig. 11(b) — tuning time over P", Run: func(c Config) (*stats.Table, error) {
			return Fig11(c, ParamP, nil)
		}},
		{ID: "fig11c", Desc: "Fig. 11(c) — tuning time over D_Q", Run: func(c Config) (*stats.Table, error) {
			return Fig11(c, ParamDQ, nil)
		}},
		{ID: "fig9c-deep", Desc: "Fig. 9(c) — D_Q sweep with deep-only queries (paper's selectivity regime)", Run: func(c Config) (*stats.Table, error) {
			c = c.withDefaults()
			c.DeepQueries = true
			return Fig9(c, ParamDQ, nil)
		}},
		{ID: "fig11c-deep", Desc: "Fig. 11(c) — D_Q sweep with deep-only queries", Run: func(c Config) (*stats.Table, error) {
			c = c.withDefaults()
			c.DeepQueries = true
			return Fig11(c, ParamDQ, nil)
		}},
		{ID: "claims", Desc: "§4.2 — headline claims", Run: Claims},
		{ID: "baseline-perdoc", Desc: "§1 — per-document index baseline [2] vs two-tier", Run: BaselinePerDocument},
		{ID: "ablation-sched", Desc: "Ablation — scheduler robustness", Run: AblationSchedulers},
		{ID: "ablation-packet", Desc: "Ablation — packet size", Run: func(c Config) (*stats.Table, error) {
			return AblationPacketSize(c, nil)
		}},
		{ID: "ablation-accounting", Desc: "Ablation — Eq. 1 vs packet-granular", Run: AblationAccounting},
		{ID: "ablation-packorder", Desc: "Ablation — DFS vs BFS packet packing", Run: AblationPackingOrder},
		{ID: "ext-skew", Desc: "Extension — query-pattern skew (paper §5 future work)", Run: func(c Config) (*stats.Table, error) {
			return QuerySkew(c, nil)
		}},
		{ID: "ext-loss", Desc: "Extension — lossy channel robustness", Run: func(c Config) (*stats.Table, error) {
			return ChannelLoss(c, nil)
		}},
		{ID: "ext-energy", Desc: "Extension — joules per query under a radio model", Run: Energy},
		{ID: "ext-crash", Desc: "Extension — crash-restart equivalence over the durability journal", Run: CrashEquivalence},
		{ID: "ext-arrivals", Desc: "Extension — arrival pattern (even / batch / Poisson)", Run: ArrivalPattern},
		{ID: "ext-succinct", Desc: "Extension — succinct first tier vs node-pointer stream over document scale", Run: func(c Config) (*stats.Table, error) {
			return SuccinctEncoding(c, nil)
		}},
		{ID: "ext-transport", Desc: "Extension — per-frame DEFLATE transport vs bare wire over document size", Run: func(c Config) (*stats.Table, error) {
			return TransportCompression(c, nil)
		}},
		{ID: "nasa-compare", Desc: "Replication — NITF vs NASA document sets (§4.1)", Run: SchemaCompare},
		{ID: "fig11-confidence", Desc: "Fig. 11(a) with error bars over 5 workload seeds", Run: func(c Config) (*stats.Table, error) {
			return Fig11Confidence(c, ParamNQ, []float64{100, 500, 1000}, 5)
		}},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// Setup renders the reconstructed Table 2.
func Setup(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	coll, err := cfg.documents()
	if err != nil {
		return nil, err
	}
	tbl := &stats.Table{
		Title:   "Table 2 — experimental setup (reconstructed; see DESIGN.md §3)",
		Columns: []string{"variable", "description", "value"},
	}
	tbl.AddRow("schema", "document set", cfg.Schema)
	tbl.AddRow("docs", "generated documents", cfg.NumDocs)
	tbl.AddRow("data", "document set size (bytes)", coll.TotalSize())
	tbl.AddRow("avg doc", "average document size (bytes)", coll.TotalSize()/coll.Len())
	tbl.AddRow("N_Q", "pending queries per broadcast period", cfg.NQ)
	// A probability, so 0 and 1 keep their decimals (AddRow drops them
	// from integer-valued floats).
	tbl.AddRow("P", "probability of * and // in queries", fmt.Sprintf("%.3f", cfg.P))
	tbl.AddRow("D_Q", "maximum depth of queries", cfg.DQ)
	tbl.AddRow("cycle", "document budget per cycle (bytes)", cfg.CycleCapacity)
	tbl.AddRow("docID", "bytes per document ID", cfg.Model.DocIDBytes)
	tbl.AddRow("pointer", "bytes per pointer", cfg.Model.PointerBytes)
	tbl.AddRow("packet", "broadcast packet size (bytes)", cfg.Model.PacketBytes)
	tbl.AddRow("scheduler", "underlying scheduling algorithm [8]", cfg.Scheduler)
	return tbl, nil
}

// RunAll executes every experiment and writes the rendered tables to w.
func RunAll(w io.Writer, cfg Config) error {
	for _, e := range Experiments() {
		tbl, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("exp: %s: %w", e.ID, err)
		}
		if _, err := fmt.Fprintf(w, "## %s — %s\n\n%s\n", e.ID, e.Desc, tbl.Render()); err != nil {
			return err
		}
	}
	return nil
}
