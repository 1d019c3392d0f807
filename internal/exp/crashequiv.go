package exp

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/sim"
	"repro/internal/stats"
)

// CrashEquivalence is the durability extension experiment: for K ∈ {1, 4}
// and a spread of crash seeds (plus one torn-write injection), a journaled
// broadcast run is killed mid-pipeline, recovered, and compared cycle by
// cycle against a crash-free control of the same admission script. Every row
// must report equivalent=yes — the recovered run re-airs exactly what the
// never-crashed run would have.
func CrashEquivalence(cfg Config) (*stats.Table, error) {
	cfg = cfg.withDefaults()
	coll, err := cfg.documents()
	if err != nil {
		return nil, err
	}
	// A compact workload keeps the ten legs fast; the crash seeds explore
	// different pipeline stages and cycles, which is what the rows vary.
	queries, err := cfg.queries(coll, 60, cfg.P, cfg.DQ)
	if err != nil {
		return nil, err
	}
	const cycles = 30
	script := sim.RestartScript(coll, queries, cycles)
	if len(script) == 0 {
		return nil, fmt.Errorf("exp: crash-equivalence workload matched no documents")
	}

	root, err := os.MkdirTemp("", "exp-crash")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	tbl := &stats.Table{
		Title:   "Extension — crash-restart equivalence (journaled run vs crash-free control)",
		Columns: []string{"K", "fault", "crash stage", "crash cycle", "recovered pending", "cycles", "equivalent"},
	}
	run := func(dir string, channels int, crashSeed, tornAfter int64) (*sim.RestartResult, error) {
		scheduler, err := cfg.scheduler()
		if err != nil {
			return nil, err
		}
		return sim.RunRestart(sim.RestartConfig{
			Collection:    coll,
			Model:         cfg.Model,
			Scheduler:     scheduler,
			Channels:      channels,
			CycleCapacity: cfg.CycleCapacity,
			Script:        script,
			Cycles:        cycles,
			StateDir:      filepath.Join(root, dir),
			CrashSeed:     crashSeed,
			TornAfter:     tornAfter,
		})
	}
	for _, k := range []int{1, 4} {
		control, err := run(fmt.Sprintf("control-k%d", k), k, 0, 0)
		if err != nil {
			return nil, err
		}
		for _, seed := range []int64{3, 5, 11} {
			crashed, err := run(fmt.Sprintf("crash-k%d-s%d", k, seed), k, seed, 0)
			if err != nil {
				return nil, err
			}
			addEquivRow(tbl, k, fmt.Sprintf("seed %d", seed), control, crashed)
		}
		torn, err := run(fmt.Sprintf("torn-k%d", k), k, 0, 4096)
		if err != nil {
			return nil, err
		}
		addEquivRow(tbl, k, "torn write", control, torn)
	}
	return tbl, nil
}

// addEquivRow compares a crashed-and-recovered run against its control and
// appends the verdict row.
func addEquivRow(tbl *stats.Table, k int, fault string, control, crashed *sim.RestartResult) {
	stage, cycle := "-", "-"
	if crashed.Crashed {
		stage = crashed.CrashStage
		cycle = fmt.Sprintf("%d", crashed.CrashCycle)
	}
	verdict := "yes"
	if err := crashed.DivergesFrom(control); err != nil {
		verdict = "no: " + err.Error()
	}
	tbl.AddRow(k, fault, stage, cycle, crashed.RecoveredPending, len(crashed.CycleHashes), verdict)
}
