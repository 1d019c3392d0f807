// Command bench-history writes or checks a line of BENCH_history.jsonl, the
// benchmark's trajectory: one JSON object per change, appended by the change
// that measured it.
//
// A line holds the commit measured (`git describe --always --dirty=+`: a
// line measured on a working tree before it is committed reads "<parent>+"),
// the change's number, the Go version, GOMAXPROCS and NumCPU; the median over
// three runs of every end-to-end metric of `go run ./bench -json -trace 0
// -seconds 10` on each workload; and the -benchmem figures of the named
// micro-benchmarks. Run it from the repository root on an otherwise idle
// machine:
//
//	go run .github/scripts/bench-history.go -pr N >> BENCH_history.jsonl
//
// With -check FILE it runs paper_sim once and fails unless its access and
// tuning byte means equal those of FILE's last line exactly: paper_sim counts
// bytes on a byte clock, so they repeat on every machine. It then runs the
// micro-benchmarks at the line's GOMAXPROCS and fails if any one's allocs/op
// exceeds the line's by more than allocSlack. A change meant to move either
// appends its own line.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// A line's medians are over runs bench runs of seconds each.
const (
	runs    = 3
	seconds = 10
)

// micro names the micro-benchmarks a line records, by package.
var micro = []struct{ pkg, name string }{
	{"./internal/schedule", "ScheduleIncremental"},
	{"./internal/core", "BuildCI"},
	{"./internal/core", "PruneIncremental"},
	{"./internal/dataguide", "ForestAdd"},
	{"./internal/succinct", "CursorLookup"},
	{"./internal/engine", "ResolveMiss"},
}

// exact are the paper_sim metrics -check compares.
var exact = []string{"access_bytes_mean", "tuning_bytes_mean"}

// allocSlack is the share by which -check lets a micro-benchmark's allocs/op
// exceed the last line's. At 1 % one allocation more fails every benchmark
// of fewer than 100 allocs/op, while the drift of the large amortised counts
// passes: BenchmarkScheduleIncremental/full read 16 071 and 16 079 allocs/op
// on one build, 0.05 % apart. One allocation more per DemandIndex.Apply adds
// 500 to its incremental pair's ≈ 1 500.
const allocSlack = 0.01

type line struct {
	Commit     string                        `json:"commit"`
	PR         int                           `json:"pr"`
	Go         string                        `json:"go"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	NumCPU     int                           `json:"num_cpu"`
	Runs       int                           `json:"runs"`
	Seconds    int                           `json:"seconds"`
	Workloads  map[string]workload           `json:"workloads"`
	Micro      map[string]map[string]float64 `json:"micro"`
}

type workload struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"` // medians over the runs
}

// benchOut is the part of bench's -json document a line reads.
type benchOut struct {
	Results []struct {
		Workload  string `json:"workload"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"results"`
}

func main() {
	pr := flag.Int("pr", 0, "the change's number")
	check := flag.String("check", "", "check paper_sim's byte means against this file's last line")
	flag.Parse()
	if err := run(*pr, *check); err != nil {
		fmt.Fprintln(os.Stderr, "bench-history:", err)
		os.Exit(1)
	}
}

func run(pr int, check string) error {
	dir, err := os.MkdirTemp("", "bench-history")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "bench")
	if err := command("go", "build", "-o", bin, "./bench").Run(); err != nil {
		return fmt.Errorf("building bench: %w", err)
	}
	if check != "" {
		return checkLast(bin, check)
	}
	commit, err := command("git", "describe", "--always", "--dirty=+").Output()
	if err != nil {
		return fmt.Errorf("git describe: %w", err)
	}
	l := line{Commit: strings.TrimSpace(string(commit)), PR: pr, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Runs: runs, Seconds: seconds, Workloads: map[string]workload{}, Micro: map[string]map[string]float64{}}
	samples := map[string]map[string][]float64{}
	for i := 0; i < runs; i++ {
		out, err := runBench(bin, "-seconds", strconv.Itoa(seconds))
		if err != nil {
			return err
		}
		for _, r := range out.Results {
			w := l.Workloads[r.Workload]
			w.Attempted += r.Attempted
			w.Failed += r.Failed
			l.Workloads[r.Workload] = w
			if samples[r.Workload] == nil {
				samples[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				samples[r.Workload][name] = append(samples[r.Workload][name], m.Value)
			}
		}
	}
	for name, ms := range samples {
		w := l.Workloads[name]
		w.Metrics = map[string]float64{}
		for metric, vs := range ms {
			w.Metrics[metric] = median(vs)
		}
		l.Workloads[name] = w
	}
	if err := runMicros(l.Micro, l.GOMAXPROCS); err != nil {
		return err
	}
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// checkLast runs paper_sim once and compares its exact metrics, then the
// micro-benchmarks' allocs/op, with the last line of file.
func checkLast(bin, file string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last line
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return fmt.Errorf("%s: last line: %w", file, err)
	}
	want, ok := last.Workloads["paper_sim"]
	if !ok {
		return fmt.Errorf("%s: the last line has no paper_sim", file)
	}
	out, err := runBench(bin, "-workload", "paper_sim", "-seconds", "1")
	if err != nil {
		return err
	}
	if len(out.Results) != 1 {
		return fmt.Errorf("bench reported %d results for paper_sim", len(out.Results))
	}
	got := out.Results[0].Metrics
	bad := false
	for _, name := range exact {
		g, w := got[name].Value, want.Metrics[name]
		status := "ok"
		if g != w {
			status, bad = "DIFFERS", true
		}
		fmt.Printf("paper_sim %s: %v, %s (commit %s) %v: %s\n", name, g, file, last.Commit, w, status)
	}
	if bad {
		return fmt.Errorf("paper_sim's byte means moved since %s's last line: a change meant to move them appends its own", file)
	}
	procs := last.GOMAXPROCS
	if procs == 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	micros := map[string]map[string]float64{}
	if err := runMicros(micros, procs); err != nil {
		return err
	}
	names := make([]string, 0, len(last.Micro))
	for name := range last.Micro {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		w, recorded := last.Micro[name]["allocs/op"]
		g, ran := micros[name]["allocs/op"]
		if !recorded || !ran {
			continue
		}
		status := "ok"
		if g > w*(1+allocSlack) {
			status, bad = "OVER", true
		}
		fmt.Printf("%s allocs/op: %v, %s %v: %s\n", name, g, file, w, status)
	}
	if bad {
		return fmt.Errorf("allocs/op rose more than %g %% over %s's last line: a change meant to raise them appends its own", 100*allocSlack, file)
	}
	return nil
}

// runBench runs the built bench once, measured, with args.
func runBench(bin string, args ...string) (*benchOut, error) {
	cmd := command(bin, append([]string{"-json", "-trace", "0"}, args...)...)
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", strings.Join(args, " "), err)
	}
	// bench prints the document, then a one-line summary: read the first.
	var out benchOut
	if err := json.NewDecoder(bytes.NewReader(stdout)).Decode(&out); err != nil {
		return nil, fmt.Errorf("bench output: %w", err)
	}
	return &out, nil
}

// runMicros runs the micro-benchmarks at GOMAXPROCS procs.
func runMicros(into map[string]map[string]float64, procs int) error {
	for _, m := range micro {
		if err := runMicro(into, m.pkg, m.name, procs); err != nil {
			return err
		}
	}
	return nil
}

// runMicro runs one micro-benchmark with -benchmem at GOMAXPROCS procs and
// records each of its results, named without the GOMAXPROCS suffix, as
// unit → value.
func runMicro(into map[string]map[string]float64, pkg, name string, procs int) error {
	out, err := command("go", "test", "-run", "^$", "-bench", "^Benchmark"+name+"$", "-benchmem", "-cpu", strconv.Itoa(procs), pkg).Output()
	if err != nil {
		return fmt.Errorf("benchmark %s in %s: %w", name, pkg, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		bench := f[0]
		if procs > 1 {
			bench = strings.TrimSuffix(bench, fmt.Sprintf("-%d", procs))
		}
		figures := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return fmt.Errorf("benchmark line %q: %w", sc.Text(), err)
			}
			figures[f[i+1]] = v
		}
		into[bench] = figures
	}
	return sc.Err()
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Stderr = os.Stderr
	return cmd
}
