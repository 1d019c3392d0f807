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
	"repro/internal/cliflags"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-exp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcast-exp", flag.ContinueOnError)
	cfg := repro.DefaultExperimentConfig()
	layout := cliflags.Layout{Encoding: cfg.IndexEncoding, Channels: cfg.Channels, Compress: cfg.Compress,
		Scheduler: cfg.Scheduler, Capacity: cfg.CycleCapacity}
	layout.Register(fs, "mode")
	var limits cliflags.Limits
	limits.Register(fs)
	fs.StringVar(&cfg.Schema, "schema", cfg.Schema, "document schema: nitf or nasa")
	fs.IntVar(&cfg.NumDocs, "docs", cfg.NumDocs, "number of generated documents")
	fs.IntVar(&cfg.NQ, "nq", cfg.NQ, "N_Q: pending queries")
	fs.Float64Var(&cfg.P, "p", cfg.P, "P: wildcard probability")
	fs.IntVar(&cfg.DQ, "dq", cfg.DQ, "D_Q: maximum query depth")
	fs.Int64Var(&cfg.DocSeed, "doc-seed", cfg.DocSeed, "document generation seed")
	fs.Int64Var(&cfg.QuerySeed, "query-seed", cfg.QuerySeed, "query generation seed")
	var (
		list  = fs.Bool("list", false, "list available experiments and exit")
		expID = fs.String("exp", "", "experiment ID to run (see -list)")
		all   = fs.Bool("all", false, "run every experiment")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
		format     = fs.String("format", "table", "output format for -exp: table, csv or json")
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
	cfg.IndexEncoding, cfg.Channels, cfg.Compress = layout.Encoding, layout.Channels, layout.Compress
	cfg.Scheduler, cfg.CycleCapacity = layout.Scheduler, layout.Capacity
	cfg.Limits = limits.Engine()

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
