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
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcast-sim", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "two-tier", "index organisation: one-tier or two-tier")
		indexEnc = fs.String("index-enc", "node", "first-tier wire layout: node or succinct (two-tier only)")
		channels = fs.Int("channels", 1, "parallel broadcast channels K at fixed aggregate bandwidth (two-tier only)")
		schema   = fs.String("schema", "nitf", "document schema: nitf or nasa")
		dataDir  = fs.String("data", "", "directory of .xml files to broadcast (overrides -schema/-docs)")
		docs     = fs.Int("docs", 50, "number of generated documents")
		nq       = fs.Int("nq", 100, "number of client requests")
		p        = fs.Float64("p", 0.1, "wildcard probability")
		dq       = fs.Int("dq", 5, "maximum query depth")
		capacity = fs.Int("capacity", 100_000, "cycle document budget in bytes")
		compress = fs.Bool("compress", false, "model the transport's per-frame DEFLATE: cycles accounted at compressed air size (K=1 only)")
		sched    = fs.String("scheduler", "leelo", "scheduler: leelo, fcfs, mrf or rxw")
		seed     = fs.Int64("seed", 1, "random seed")
		verbose  = fs.Bool("v", false, "print per-cycle and per-client detail")

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

	bm, err := repro.ParseBroadcastMode(*mode)
	if err != nil {
		return err
	}
	enc, err := repro.ParseIndexEncoding(*indexEnc)
	if err != nil {
		return err
	}

	var coll *repro.Collection
	if *dataDir != "" {
		coll, err = repro.LoadCollection(*dataDir)
	} else {
		coll, err = repro.GenerateDocuments(*schema, *docs, *seed)
	}
	if err != nil {
		return err
	}
	queries, err := repro.GenerateQueries(coll, *nq, *dq, *p, *seed+1)
	if err != nil {
		return err
	}
	reqs := make([]repro.ClientRequest, len(queries))
	for i, q := range queries {
		reqs[i] = repro.ClientRequest{Query: q, Arrival: int64(i) * 100}
	}
	if *restart {
		return restartCheck(coll, queries, restartCheckConfig{
			sched:     *sched,
			channels:  *channels,
			capacity:  *capacity,
			cycles:    *cycles,
			crashSeed: *crashSeed,
			stateDir:  *stateDir,
			fsync:     *fsync,
			snapEvery: *snapEvery,
			verbose:   *verbose,
		})
	}
	scheduler, err := repro.NewScheduler(*sched)
	if err != nil {
		return err
	}
	res, err := repro.Simulate(repro.SimulationConfig{
		Collection:    coll,
		Mode:          bm,
		IndexEncoding: enc,
		Channels:      *channels,
		Scheduler:     scheduler,
		CycleCapacity: *capacity,
		Requests:      reqs,
		Compress:      *compress,
	})
	if err != nil {
		return err
	}

	fmt.Printf("mode=%s enc=%s schema=%s docs=%d data=%dB requests=%d scheduler=%s channels=%d compress=%v\n",
		*mode, enc, *schema, coll.Len(), coll.TotalSize(), len(reqs), *sched, *channels, *compress)
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

type restartCheckConfig struct {
	sched     string
	channels  int
	capacity  int
	cycles    int
	crashSeed int64
	stateDir  string
	fsync     bool
	snapEvery int
	verbose   bool
}

// restartCheck runs the same admission script twice over a durability
// journal — once crash-free, once with a seed-chosen mid-pipeline crash
// followed by warm recovery — and verifies the two runs are wire-identical
// cycle by cycle.
func restartCheck(coll *repro.Collection, queries []repro.Query, cfg restartCheckConfig) error {
	// Queries with empty result sets never enter the pending set; the
	// remainder are admitted evenly across the first two thirds of the run
	// so the crash window always has live pending state around it.
	matches := repro.FilterDocuments(coll, queries)
	var live []repro.Query
	for i, q := range queries {
		if len(matches[i]) > 0 {
			live = append(live, q)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("restart-check: no query in the workload matches any document")
	}
	span := cfg.cycles * 2 / 3
	if span < 1 {
		span = 1
	}
	script := make([]repro.ScriptedRequest, len(live))
	for i, q := range live {
		script[i] = repro.ScriptedRequest{Cycle: int64(i * span / len(live)), Query: q}
	}

	root := cfg.stateDir
	if root == "" {
		tmp, err := os.MkdirTemp("", "bcast-sim-restart")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	leg := func(dir string, crashSeed int64) (*repro.RestartSimResult, error) {
		scheduler, err := repro.NewScheduler(cfg.sched)
		if err != nil {
			return nil, err
		}
		return repro.RunRestartSim(repro.RestartSimConfig{
			Collection:    coll,
			Scheduler:     scheduler,
			Channels:      cfg.channels,
			CycleCapacity: cfg.capacity,
			Script:        script,
			Cycles:        int64(cfg.cycles),
			StateDir:      dir,
			Fsync:         cfg.fsync,
			SnapshotEvery: cfg.snapEvery,
			CrashSeed:     crashSeed,
		})
	}
	control, err := leg(filepath.Join(root, "control"), 0)
	if err != nil {
		return err
	}
	crashed, err := leg(filepath.Join(root, "crash"), cfg.crashSeed)
	if err != nil {
		return err
	}

	fmt.Printf("restart-check: %d requests over %d cycles, K=%d, seed-%d crash\n",
		len(script), cfg.cycles, cfg.channels, cfg.crashSeed)
	if crashed.Crashed {
		fmt.Printf("crash:     stage %s, cycle %d\n", crashed.CrashStage, crashed.CrashCycle)
		fmt.Printf("recovery:  generation %d, %d pending restored, truncated=%v\n",
			crashed.Generation, crashed.RecoveredPending, crashed.RecoveredTruncated)
	} else {
		fmt.Printf("crash:     seed %d never reached its probe point (run was crash-free)\n", cfg.crashSeed)
	}
	if err := crashed.DivergesFrom(control); err != nil {
		return fmt.Errorf("restart-check: %w", err)
	}
	if cfg.verbose {
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
