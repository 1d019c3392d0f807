package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload in-process over a fraction of a second. It
// asserts that every named metric is reported, finite and unit-tagged and
// that nothing failed; it makes no timing assertion, so it cannot flake on a
// loaded machine. A network workload's traced run does everything its
// measured run does and more, so only the simulator runs in both modes.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		modes := []bool{true}
		if w.net == nil {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			w, traced := w, traced
			name := w.name + "/measured"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				o := runOpts{seed: 1, warmup: 100 * time.Millisecond, window: 300 * time.Millisecond,
					trace: traced, quick: true, tmpDir: dir}
				if traced {
					o.outDir = dir
				}
				res, err := w.run(o)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Wrong != 0 || !res.Correct {
					t.Errorf("failed=%d wrong=%d correct=%v of %d attempted: %v", res.Failed, res.Wrong, res.Correct, res.Attempted, res.Notes)
				}
				if res.Why == "" || res.Fingerprint == "" {
					t.Errorf("result lacks its reason (%q) or inputs fingerprint (%q)", res.Why, res.Fingerprint)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				reported := defs
				if traced && w.net != nil {
					reported = append(append([]metricDef(nil), endToEnd...), perLayer...)
				}
				for _, d := range reported {
					s, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value < 0:
						t.Errorf("metric %s = %v", d.Name, s.Value)
					case s.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, s.Unit, d.Unit)
					}
				}
				if traced && w.net != nil {
					if res.SpanFile == "" {
						t.Fatal("traced run wrote no span file")
					}
					data, err := os.ReadFile(res.SpanFile)
					if err != nil {
						t.Fatal(err)
					}
					var f spanFile
					if err := json.Unmarshal(data, &f); err != nil {
						t.Fatalf("span file: %v", err)
					}
					names := map[string]bool{}
					for _, s := range f.Spans {
						names[s.Name] = true
					}
					for _, want := range []string{"cycle", "engine.schedule", "engine.build", "engine.encode"} {
						if !names[want] {
							t.Errorf("span file has no %q span (have %v)", want, names)
						}
					}
				}
				line, err := json.Marshal(driverLineFor(res))
				if err != nil {
					t.Fatal(err)
				}
				var back struct {
					Metrics map[string]struct {
						Value *float64
						Unit  *string
					}
				}
				if err := json.Unmarshal(line, &back); err != nil || len(back.Metrics) != len(defs) {
					t.Errorf("driver line carries %d metrics, want %d (err %v)", len(back.Metrics), len(defs), err)
				}
			})
		}
	}
}

// TestSeededInputs checks that a seed fixes every generated input — the
// collection, the query pool with its oracle answers, the background
// schedule, the foreground picks, the simulator's requests — and that
// another seed changes them.
func TestSeededInputs(t *testing.T) {
	type snapshot struct {
		fingerprint uint64
		pool        []string
		schedule    []bgSend
		picks       []int
		simQueries  []string
	}
	take := func(seed int64) snapshot {
		in, err := makeInputs(seed, 110, 50)
		if err != nil {
			t.Fatal(err)
		}
		s := snapshot{fingerprint: in.fingerprint(), schedule: in.backgroundSchedule(1000, time.Second)}
		for _, q := range in.pool {
			s.pool = append(s.pool, q.String())
		}
		r := in.foregroundRand(1)
		for i := 0; i < 32; i++ {
			s.picks = append(s.picks, r.Intn(len(in.pool)))
		}
		for _, q := range simRequestsFor(in, 64) {
			s.simQueries = append(s.simQueries, q.Query.String())
		}
		return s
	}
	a, again, b := take(7), take(7), take(8)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed generated different inputs")
	}
	if a.fingerprint == b.fingerprint || reflect.DeepEqual(a.pool, b.pool) ||
		reflect.DeepEqual(a.schedule, b.schedule) || reflect.DeepEqual(a.picks, b.picks) {
		t.Error("a different seed generated the same inputs")
	}
}

// TestCollectionVolumeIsPinned checks the text normalisation: whatever the
// seed, the collection serialises to exactly meanDocBytes per document.
func TestCollectionVolumeIsPinned(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in, err := makeInputs(seed, 100, 100)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.coll.TotalSize(); got != 100*meanDocBytes {
			t.Errorf("seed %d: collection is %d B, want %d", seed, got, 100*meanDocBytes)
		}
	}
}

// TestBenchmarkJSONAgrees checks BENCHMARK.json against the tables this
// program reports from: same workloads and reasons, same metrics with the
// same units, directions and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: reason must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program has %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != bounds[d.Name]) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, d.Name, bounds[d.Name])
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestDriverFlags checks the command line the benchmark driver uses.
func TestDriverFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "paper_sim", "--seed", "9", "--seconds", "2", "--trace", "1"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.workloads) != 1 || o.workloads[0].name != "paper_sim" || o.seed != 9 ||
		o.window != 2*time.Second || !reflect.DeepEqual(o.modes, []bool{true}) {
		t.Errorf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"--workload", "nope"}, &bytes.Buffer{}); err == nil {
		t.Error("an unknown workload was accepted")
	}
}
