// Command bench is this repository's benchmark: five workloads over the real
// TCP path (netcast server, mux uplink, broadcast downlink on host loopback)
// and one over the byte-clock simulator, each reporting end-to-end metrics
// with tracing off and per-layer metrics from a separate traced run. It
// drives the system only from outside, through exported functions.
//
//	go run ./bench                      every workload, measured then traced
//	go run ./bench -workload steady     one workload
//	go run ./bench -selfcheck           the measured suite twice, compared
//
// The benchmark driver's form — one workload, one mode, a one-line JSON
// result last on standard output — is
//
//	go run ./bench --workload steady --seed 3 --seconds 10 --trace 0
//
// README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// scratchDir holds the durable workload's state directory while it runs; it
// sits in the working directory (the benchmark writes nowhere else) and is
// removed when the program ends.
const scratchDir = ".bench_tmp"

type options struct {
	workloads []workload
	seed      int64
	window    time.Duration
	warmup    time.Duration
	modes     []bool // traced? one entry per run of each workload
	outDir    string
	jsonOut   bool
	selfcheck bool
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "workload `name[,name]`; empty runs all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "measured window per run, in seconds")
	warmup := fs.Duration("warmup", 1500*time.Millisecond, "load applied before the window opens (caches fill, first tiers are read)")
	trace := fs.String("trace", "", "0: measured run (end-to-end metrics, tracing off); 1: traced run (per-layer metrics); empty: both")
	out := fs.String("out", "", "directory the traced run writes one span file per workload into; empty keeps spans in memory only")
	jsonOut := fs.Bool("json", false, "print every result as one JSON document instead of tables")
	selfcheck := fs.Bool("selfcheck", false, "run the measured suite twice and fail unless every end-to-end metric agrees within its bound")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	o := &options{seed: *seed, warmup: *warmup, outDir: *out, jsonOut: *jsonOut, selfcheck: *selfcheck}
	o.window = time.Duration(*seconds * float64(time.Second))
	if o.window <= 0 || o.warmup < 0 {
		return nil, fmt.Errorf("-seconds must be positive and -warmup not negative")
	}
	if *names == "" {
		o.workloads = workloads
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w, ok := findWorkload(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
		}
		o.workloads = append(o.workloads, w)
	}
	switch *trace {
	case "":
		o.modes = []bool{false, true}
	case "0":
		o.modes = []bool{false}
	case "1":
		o.modes = []bool{true}
	default:
		return nil, fmt.Errorf("-trace must be 0 or 1, got %q", *trace)
	}
	if o.selfcheck {
		o.modes = []bool{false}
	}
	return o, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func (o *options) runOpts(traced bool) runOpts {
	return runOpts{seed: o.seed, warmup: o.warmup, window: o.window, trace: traced, tmpDir: scratchDir, outDir: o.outDir}
}

// runSuite runs every selected workload in every selected mode.
func (o *options) runSuite(progress io.Writer) ([]*result, error) {
	var results []*result
	for _, traced := range o.modes {
		for _, w := range o.workloads {
			fmt.Fprintf(progress, "running %s (traced=%v, seed %d, %v)...\n", w.name, traced, o.seed, o.window)
			res, err := w.run(o.runOpts(traced))
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}
	return results, nil
}

func environment() string {
	return fmt.Sprintf("host loopback, single process, nproc=%d, GOMAXPROCS=%d, %s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func printResult(w io.Writer, r *result) {
	mode, defs := "measured (tracing off)", endToEnd
	if r.Traced {
		mode, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s — %s, seed %d, window %gs, inputs %s\n   %s\n", r.Workload, mode, r.Seed, r.WindowS, r.Fingerprint, r.Why)
	fmt.Fprintf(w, "   %-40s %16s  %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		s := r.Metrics[d.Name]
		if r.Traced && s.N == 0 {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(w, "   %-40s %16.4f  %-6s %8d\n", d.Name, s.Value, s.Unit, s.N)
	}
	fmt.Fprintf(w, "   %-40s %16.6f  %-6s %8d   (%d failed, %d wrong; correct=%v)\n",
		"failed_share", r.failedShare(), "ratio", r.Attempted, r.Failed, r.Wrong, r.Correct)
	if r.SpanFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", r.SpanFile)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// printOverhead reports what tracing cost: the traced run's end-to-end
// numbers against the measured run's, per workload.
func printOverhead(w io.Writer, results []*result) {
	measured := map[string]*result{}
	for _, r := range results {
		if !r.Traced {
			measured[r.Workload] = r
		}
	}
	for _, r := range results {
		m := measured[r.Workload]
		if !r.Traced || m == nil || r.Metrics["latency_p50_ms"].N == 0 {
			continue
		}
		fmt.Fprintf(w, "trace_overhead %-20s cpu_ms_per_cycle %+.4f ms (%.4f traced, %.4f measured)  latency_p50_ms %+.4f ms (%.4f traced, %.4f measured)\n",
			r.Workload,
			r.Metrics["cpu_ms_per_cycle"].Value-m.Metrics["cpu_ms_per_cycle"].Value,
			r.Metrics["cpu_ms_per_cycle"].Value, m.Metrics["cpu_ms_per_cycle"].Value,
			r.Metrics["latency_p50_ms"].Value-m.Metrics["latency_p50_ms"].Value,
			r.Metrics["latency_p50_ms"].Value, m.Metrics["latency_p50_ms"].Value)
	}
}

// driverLine is the benchmark driver's contract: the last line of standard
// output, for one workload in one mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverLineFor(r *result) driverLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return line
}

// selfcheck compares two measured suites: every end-to-end metric of every
// workload must agree within its bound, the simulator's byte counts and
// every failed share exactly.
func selfcheck(w io.Writer, a, b []*result) bool {
	ok := true
	fmt.Fprintf(w, "\n%-20s %-20s %14s %14s %8s %6s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i := range a {
		ra, rb := a[i], b[i]
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			diff := ratio(vb-va, va)
			if diff < 0 {
				diff = -diff
			}
			bound := bounds[d.Name]
			// The simulator's byte-clock results repeat bit for bit.
			if ra.Workload == "paper_sim" && (d.Unit == "B" || strings.HasPrefix(d.Name, "latency_")) {
				bound = 0
			}
			verdict := ""
			if diff > bound {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Fprintf(w, "%-20s %-20s %14.4f %14.4f %7.2f%% %5.0f%%%s\n", ra.Workload, d.Name, va, vb, 100*diff, 100*bound, verdict)
		}
		verdict := ""
		if ra.Failed != 0 || rb.Failed != 0 || !ra.Correct || !rb.Correct {
			verdict, ok = "  DISAGREE", false
		}
		fmt.Fprintf(w, "%-20s %-20s %14.6f %14.6f %8s %6s%s\n", ra.Workload, "failed_share", ra.failedShare(), rb.failedShare(), "", "0", verdict)
	}
	return ok
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	defer os.RemoveAll(scratchDir)
	results, err := o.runSuite(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.selfcheck {
		again, err := o.runSuite(stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, environment())
		if !selfcheck(stdout, results, again) {
			fmt.Fprintln(stdout, "selfcheck: FAILED")
			return 1
		}
		fmt.Fprintln(stdout, "selfcheck: ok")
		return 0
	}
	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"environment": environment(), "results": results})
	} else {
		fmt.Fprintln(stdout, environment())
		for _, r := range results {
			printResult(stdout, r)
		}
		fmt.Fprintln(stdout)
		printOverhead(stdout, results)
	}
	if len(results) == 1 {
		line, err := json.Marshal(driverLineFor(results[0]))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
