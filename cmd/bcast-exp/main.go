// Command bcast-exp regenerates the paper's evaluation: every figure and
// table of §4 plus this repository's ablations, printed as text tables.
//
// Usage:
//
//	bcast-exp -list
//	bcast-exp -exp fig11a
//	bcast-exp -all
//
// Workload parameters (N_Q, P, D_Q, document count, cycle capacity,
// scheduler, seeds) can be overridden with flags; defaults reproduce the
// reconstructed Table 2 setup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-exp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcast-exp", flag.ContinueOnError)
	var (
		list  = fs.Bool("list", false, "list available experiments and exit")
		expID = fs.String("exp", "", "experiment ID to run (see -list)")
		all   = fs.Bool("all", false, "run every experiment")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
		schema     = fs.String("schema", "", "document schema: nitf or nasa")
		docs       = fs.Int("docs", 0, "number of generated documents")
		nq         = fs.Int("nq", 0, "N_Q: pending queries")
		p          = fs.Float64("p", -1, "P: wildcard probability")
		dq         = fs.Int("dq", 0, "D_Q: maximum query depth")
		cap        = fs.Int("capacity", 0, "cycle document budget in bytes")
		channels   = fs.Int("channels", 0, "parallel broadcast channels K for experiment runs (two-tier legs only)")
		compress   = fs.Bool("compress", false, "model the transport's per-frame DEFLATE in experiment runs (K=1 only)")
		indexEnc   = fs.String("index-enc", "", "first-tier wire layout for experiment runs: node or succinct (two-tier legs only)")
		sched      = fs.String("scheduler", "", "scheduler: leelo, fcfs, mrf or rxw")
		docSeed    = fs.Int64("doc-seed", 0, "document generation seed")
		qSeed      = fs.Int64("query-seed", 0, "query generation seed")
		format     = fs.String("format", "table", "output format for -exp: table, csv or json")

		maxPending  = fs.Int("max-pending", 0, "engine admission cap on the pending set (0 = unlimited)")
		answerCache = fs.Int("answer-cache", 0, "max memoized query answers, LRU-evicted (0 = unlimited)")
		payloadMB   = fs.Int("payload-cache", 0, "max cached document megabytes (payloads plus, when compressing, their envelopes), LRU-evicted (0 = unlimited)")
		buildBudget = fs.Duration("build-budget", 0, "per-cycle index-pruning deadline; overruns broadcast the unpruned CI (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range repro.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Desc)
		}
		return nil
	}

	cfg := repro.DefaultExperimentConfig()
	if *schema != "" {
		cfg.Schema = *schema
	}
	if *docs > 0 {
		cfg.NumDocs = *docs
	}
	if *nq > 0 {
		cfg.NQ = *nq
	}
	if *p >= 0 {
		cfg.P = *p
	}
	if *dq > 0 {
		cfg.DQ = *dq
	}
	if *cap > 0 {
		cfg.CycleCapacity = *cap
	}
	if *channels > 0 {
		cfg.Channels = *channels
	}
	cfg.Compress = *compress
	if *indexEnc != "" {
		enc, err := repro.ParseIndexEncoding(*indexEnc)
		if err != nil {
			return err
		}
		cfg.IndexEncoding = enc
	}
	if *sched != "" {
		cfg.Scheduler = *sched
	}
	if *docSeed != 0 {
		cfg.DocSeed = *docSeed
	}
	if *qSeed != 0 {
		cfg.QuerySeed = *qSeed
	}
	cfg.Limits = repro.EngineLimits{
		MaxPending:            *maxPending,
		MaxAnswerCacheEntries: *answerCache,
		MaxPayloadCacheBytes:  *payloadMB << 20,
		BuildBudget:           *buildBudget,
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bcast-exp: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bcast-exp: memprofile:", err)
			}
		}()
	}

	switch {
	case *all:
		return repro.RunAllExperiments(os.Stdout, cfg)
	case *expID != "":
		tbl, err := repro.RunExperiment(*expID, cfg)
		if err != nil {
			return err
		}
		switch *format {
		case "table":
			fmt.Print(tbl.Render())
		case "csv":
			fmt.Print(tbl.RenderCSV())
		case "json":
			data, err := json.MarshalIndent(tbl, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
		default:
			return fmt.Errorf("unknown format %q (want table, csv or json)", *format)
		}
		return nil
	default:
		return fmt.Errorf("nothing to do: pass -list, -exp <id> or -all")
	}
}
