// Command bcast-index builds the Compact Index of a document collection,
// optionally prunes it to a pending query set, and saves it as a one-cycle
// broadcast capture: the cycle head and index frame a client reads off the
// air (inspectable with cmd/bcast-inspect -in).
//
// Usage:
//
//	bcast-index -docs 100 -out ci.xbc
//	bcast-index -data ./corpus -queries "/nitf/head/title,/nitf//p" -tier first -out pci.xbc
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bcast-index:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bcast-index", flag.ContinueOnError)
	var (
		schema  = fs.String("schema", "nitf", "document schema: nitf or nasa")
		dataDir = fs.String("data", "", "directory of .xml files (overrides -schema/-docs)")
		docs    = fs.Int("docs", 50, "number of generated documents")
		seed    = fs.Int64("seed", 1, "random seed")
		queries = fs.String("queries", "", "comma-separated pending queries; prunes the CI into a PCI")
		tier    = fs.String("tier", "first", "packed layout: one or first")
		out     = fs.String("out", "index.xbc", "output index snapshot (a one-cycle capture)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		coll *repro.Collection
		err  error
	)
	if *dataDir != "" {
		coll, err = repro.LoadCollection(*dataDir)
	} else {
		coll, err = repro.GenerateDocuments(*schema, *docs, *seed)
	}
	if err != nil {
		return err
	}
	idx, err := repro.BuildIndex(coll)
	if err != nil {
		return err
	}
	label := "CI"
	if *queries != "" {
		var pending []repro.Query
		for _, expr := range strings.Split(*queries, ",") {
			q, err := repro.ParseQuery(strings.TrimSpace(expr))
			if err != nil {
				return err
			}
			pending = append(pending, q)
		}
		pci, st, err := idx.Prune(pending)
		if err != nil {
			return err
		}
		idx = pci
		label = fmt.Sprintf("PCI (%d -> %d nodes for %d queries)", st.NodesBefore, st.NodesAfter, len(pending))
	}
	var t = repro.FirstTier
	switch *tier {
	case "one":
		t = repro.OneTier
	case "first":
	default:
		return fmt.Errorf("unknown tier %q (want one or first)", *tier)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := repro.SaveIndex(f, idx, t); err != nil {
		return err
	}
	st := idx.Stats()
	fmt.Printf("wrote %s to %s: %d nodes, %d attachments over %d docs, %d B (%s tier)\n",
		label, *out, st.Nodes, st.Attachments, st.Docs, idx.Size(t), *tier)
	return nil
}
