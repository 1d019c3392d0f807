// Command bcast-inspect summarises a broadcast capture file — a recording
// made by cmd/bcast-capture or a one-cycle index snapshot written by
// cmd/bcast-index: per-cycle segment sizes, decoded index structure and,
// optionally, the answer a query would obtain from each captured index.
//
// Usage:
//
//	bcast-inspect -in session.xbc
//	bcast-inspect -in index.xbc -query /nitf/head/title
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-inspect:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcast-inspect", flag.ContinueOnError)
	var (
		in    = fs.String("in", "", "capture file from bcast-capture or bcast-index")
		query = fs.String("query", "", "optional XPath query to evaluate against each index")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := repro.ReadBroadcastCapture(f)
	if err != nil {
		return err
	}
	var q repro.Query
	if *query != "" {
		q, err = repro.ParseQuery(*query)
		if err != nil {
			return err
		}
	}
	model := repro.DefaultSizeModel()
	fmt.Printf("%d captured cycles\n", len(records))
	for i := range records {
		rec := &records[i]
		ix, err := rec.DecodeIndex(model)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", rec.Number, err)
		}
		st := ix.Stats()
		mode := "one-tier"
		if rec.TwoTier {
			mode = "two-tier"
		}
		fmt.Printf("\ncycle %d (%s): index %d B, 2nd tier %d B, %d docs\n",
			rec.Number, mode, len(rec.IndexSeg), len(rec.SecondTierSeg), len(rec.Docs))
		fmt.Printf("  index: %d nodes (%d leaves), depth %d, max fanout %d, %d attachments over %d docs\n",
			st.Nodes, st.Leaves, st.MaxDepth, st.MaxFanout, st.Attachments, st.Docs)
		if entries, err := rec.SecondTier(model); err == nil && entries != nil {
			fmt.Printf("  offsets:")
			for _, e := range entries {
				fmt.Printf(" d%d@%d", e.Doc, e.Offset)
			}
			fmt.Println()
		}
		if *query != "" {
			res := ix.Lookup(q)
			fmt.Printf("  %s -> %v (%d index nodes read)\n", q, res.Docs, len(res.Visited))
		}
	}
	return nil
}
