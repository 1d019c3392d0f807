// Command bcast-sim runs one on-demand broadcast simulation and prints the
// server- and client-side metrics: index sizes per cycle, tuning time and
// access time per client, and their means.
//
// Usage:
//
//	bcast-sim -mode two-tier -docs 100 -nq 500 -p 0.1 -dq 5
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/cliflags"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcast-sim", flag.ContinueOnError)
	layout := cliflags.Layout{Mode: repro.TwoTierMode, Channels: 1, Scheduler: "leelo", Capacity: 100_000}
	layout.Register(fs)
	src := cliflags.Source{Schema: "nitf", Docs: 50, Seed: 1}
	src.Register(fs)
	var (
		nq      = fs.Int("nq", 100, "number of client requests")
		p       = fs.Float64("p", 0.1, "wildcard probability")
		dq      = fs.Int("dq", 5, "maximum query depth")
		verbose = fs.Bool("v", false, "print per-cycle and per-client detail")

		restart   = fs.Bool("restart-check", false, "run the crash-restart equivalence check instead of the metrics simulation: a crashed-and-recovered journaled run must be wire-identical to a crash-free control")
		crashSeed = fs.Int64("crash-seed", 1, "seed choosing the injected crash's pipeline stage and cycle (-restart-check)")
		cycles    = fs.Int("cycles", 40, "committed cycles per leg (-restart-check)")
		stateDir  = fs.String("state-dir", "", "journal directory root for -restart-check (empty = temp, removed after)")
		fsync     = fs.Bool("fsync", false, "fsync journal appends (-restart-check)")
		snapEvery = fs.Int("snapshot-every", 0, "journal records between compacting snapshots, 0 = default (-restart-check)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	coll, err := src.Load()
	if err != nil {
		return err
	}
	queries, err := repro.GenerateQueries(coll, *nq, *dq, *p, src.Seed+1)
	if err != nil {
		return err
	}
	if *restart {
		// The check runs the two-tier, node-encoded, bare program: a layout
		// flag it would ignore is refused instead.
		var refused error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "mode", "index-enc", "compress":
				if refused == nil && f.Value.String() != f.DefValue {
					refused = fmt.Errorf("-restart-check runs two-tier, node-encoded and uncompressed; it does not take -%s %s", f.Name, f.Value)
				}
			}
		})
		if refused != nil {
			return refused
		}
		return restartCheck(repro.RestartSimConfig{
			Collection:    coll,
			Channels:      layout.Channels,
			CycleCapacity: layout.Capacity,
			Script:        repro.RestartScript(coll, queries, int64(*cycles)),
			Cycles:        int64(*cycles),
			Fsync:         *fsync,
			SnapshotEvery: *snapEvery,
			CrashSeed:     *crashSeed,
		}, layout.Scheduler, *stateDir, *verbose)
	}
	reqs := make([]repro.ClientRequest, len(queries))
	for i, q := range queries {
		reqs[i] = repro.ClientRequest{Query: q, Arrival: int64(i) * 100}
	}
	scheduler, err := repro.NewScheduler(layout.Scheduler)
	if err != nil {
		return err
	}
	res, err := repro.Simulate(repro.SimulationConfig{
		Collection:    coll,
		Mode:          layout.Mode,
		IndexEncoding: layout.Encoding,
		Channels:      layout.Channels,
		Scheduler:     scheduler,
		CycleCapacity: layout.Capacity,
		Requests:      reqs,
		Compress:      layout.Compress,
	})
	if err != nil {
		return err
	}

	fmt.Printf("mode=%s enc=%s schema=%s docs=%d data=%dB requests=%d scheduler=%s channels=%d compress=%v\n",
		layout.Mode, layout.Encoding, src.Schema, coll.Len(), coll.TotalSize(), len(reqs), layout.Scheduler, layout.Channels, layout.Compress)
	fmt.Printf("cycles broadcast:        %d\n", res.NumCycles())
	fmt.Printf("mean cycle length:       %.0f B\n", res.MeanCycleBytes())
	fmt.Printf("mean index size (L_I):   %.0f B\n", res.MeanIndexBytes())
	fmt.Printf("mean 2nd tier (L_O):     %.0f B\n", res.MeanSecondTierBytes())
	fmt.Printf("mean cycles per query:   %.1f\n", res.MeanCyclesListened())
	fmt.Printf("mean index tuning:       %.0f B\n", res.MeanIndexTuningBytes())
	fmt.Printf("mean doc tuning:         %.0f B\n", res.MeanDocTuningBytes())
	fmt.Printf("mean access time:        %.0f B\n", res.MeanAccessBytes())
	fmt.Printf("access p50 / p99:        %.0f / %.0f B\n",
		res.AccessBytesPercentile(50), res.AccessBytesPercentile(99))
	fmt.Printf("index tuning p50 / p99:  %.0f / %.0f B\n",
		res.IndexTuningBytesPercentile(50), res.IndexTuningBytesPercentile(99))
	fmt.Printf("engine:                  %s\n", res.Engine)

	if *verbose {
		fmt.Println("\ncycle  start      L_I    L_O   docs  docBytes  pending")
		for _, c := range res.Cycles {
			fmt.Printf("%5d  %9d  %5d  %5d  %4d  %8d  %7d\n",
				c.Number, c.Start, c.IndexBytes, c.SecondTierBytes, c.NumDocs, c.DocBytes, c.Pending)
		}
		fmt.Println("\nclient  arrival    tuning(idx)  tuning(doc)  access     cycles  query")
		for i, cl := range res.Clients {
			fmt.Printf("%6d  %9d  %11d  %11d  %9d  %6d  %s\n",
				i, cl.Arrival, cl.IndexTuningBytes, cl.DocTuningBytes, cl.AccessBytes, cl.CyclesListened, cl.Query)
		}
	}
	return nil
}

// restartCheck runs cfg's admission script twice over a durability journal
// under root — once crash-free, once with the seed-chosen mid-pipeline crash
// followed by warm recovery — and verifies the two runs are wire-identical
// cycle by cycle.
func restartCheck(cfg repro.RestartSimConfig, sched, root string, verbose bool) error {
	if len(cfg.Script) == 0 {
		return fmt.Errorf("restart-check: no query in the workload matches any document")
	}
	if root == "" {
		tmp, err := os.MkdirTemp("", "bcast-sim-restart")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	leg := func(dir string, crashSeed int64) (*repro.RestartSimResult, error) {
		scheduler, err := repro.NewScheduler(sched)
		if err != nil {
			return nil, err
		}
		c := cfg
		c.Scheduler, c.StateDir, c.CrashSeed = scheduler, dir, crashSeed
		return repro.RunRestartSim(c)
	}
	control, err := leg(filepath.Join(root, "control"), 0)
	if err != nil {
		return err
	}
	crashed, err := leg(filepath.Join(root, "crash"), cfg.CrashSeed)
	if err != nil {
		return err
	}

	fmt.Printf("restart-check: %d requests over %d cycles, K=%d, seed-%d crash\n",
		len(cfg.Script), cfg.Cycles, cfg.Channels, cfg.CrashSeed)
	if crashed.Crashed {
		fmt.Printf("crash:     stage %s, cycle %d\n", crashed.CrashStage, crashed.CrashCycle)
		fmt.Printf("recovery:  generation %d, %d pending restored, truncated=%v\n",
			crashed.Generation, crashed.RecoveredPending, crashed.RecoveredTruncated)
	} else {
		fmt.Printf("crash:     seed %d never reached its probe point (run was crash-free)\n", cfg.CrashSeed)
	}
	if err := crashed.DivergesFrom(control); err != nil {
		return fmt.Errorf("restart-check: %w", err)
	}
	if verbose {
		fmt.Println("\ncycle  wire hash         pending")
		for i, h := range control.CycleHashes {
			n := 0
			if control.PendingKeys[i] != "" {
				n = strings.Count(control.PendingKeys[i], ";")
			}
			fmt.Printf("%5d  %016x  %7d\n", i, h, n)
		}
	}
	fmt.Printf("verdict:   equivalent (%d cycles wire-identical, pending sets match)\n", len(control.CycleHashes))
	return nil
}
