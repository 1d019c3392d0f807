package main

import (
	"fmt"
	"time"
)

// Cycle pacing. The server's cycle loop is ticker-only, so the interval is
// the channel's bandwidth: paced is one 100 KB cycle per 10 ms (the paper's
// constant-bandwidth model), fast is twice that. README.md ("saturated")
// records why the fast channel is not run any faster.
const (
	paced = 10 * time.Millisecond
	fast  = 5 * time.Millisecond
)

// workload is one named entry of the benchmark; exactly one of net and sim
// is set.
type workload struct {
	name, why string
	net       *netWorkload
}

// workloads lists the benchmark's workloads in report order. The names are
// fixed: BENCHMARK.json and later issues cite them.
var workloads = func() []workload {
	nets := []netWorkload{
		{
			name:     "steady",
			why:      "The paper's Table-2 regime on a paced channel: every layer works and none dominates but client document parsing; the reference row the others are read against.",
			interval: paced, rate: 2500, foreground: 2, startDocs: 100, numDocs: 100,
		},
		{
			name:     "saturated",
			why:      "Channel at twice the pace with one client parsing at about two thirds of a core's capacity: the least headroom the suite runs with, so a slowdown shows as lost cycles and backlog.",
			interval: fast, rate: 1000, foreground: 1, startDocs: 100, numDocs: 100,
		},
		{
			name:     "audience",
			why:      "Engine nearly idle while 64 passive listeners make fan-out, per-subscriber framing and socket writes the main cost; an engine optimisation must not move it.",
			interval: paced, rate: 100, foreground: 2, listeners: 64, startDocs: 100, numDocs: 100,
		},
		{
			name:     "compressed_succinct",
			why:      "The other half of the mode matrix: per-frame DEFLATE and the succinct first tier do the extra work and cut bytes on air about fourfold.",
			interval: paced, rate: 500, foreground: 2, compress: true, succinct: true, startDocs: 100, numDocs: 100,
		},
		{
			name:     "live_durable",
			why:      "Writes beside reads: documents are added while queries run, so answer-cache invalidation, CI rebuilds, prune fallbacks and the journal's admit/commit path all work.",
			interval: paced, rate: 1000, foreground: 2, durable: true, startDocs: 50, numDocs: 110,
		},
	}
	var out []workload
	for i := range nets {
		out = append(out, workload{name: nets[i].name, why: nets[i].why, net: &nets[i]})
	}
	return append(out, workload{
		name: "paper_sim",
		why:  "The paper's own metrics as exact byte-clock counts, no sockets: the guard rail that bytes on air are unchanged, and the only place K=4 is covered.",
	})
}()

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run runs the workload once. Whatever the run did not measure reads 0, so
// every result carries its mode's whole metric list.
func (w workload) run(o runOpts) (*result, error) {
	var res *result
	var err error
	if w.net != nil {
		res, err = runNet(*w.net, o)
	} else {
		res, err = runSim(w, o)
	}
	if err != nil {
		return nil, err
	}
	res.Metrics.fill(endToEnd)
	if o.trace {
		res.Metrics.fill(perLayer)
	}
	return res, nil
}

// result is one run of one workload.
type result struct {
	Workload    string    `json:"workload"`
	Why         string    `json:"why"`
	Seed        int64     `json:"seed"`
	Traced      bool      `json:"traced"`
	WindowS     float64   `json:"window_s"`
	Fingerprint string    `json:"inputs_fingerprint"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Wrong       int       `json:"wrong"`
	Correct     bool      `json:"correct"`
	Metrics     metricSet `json:"metrics"`
	SpanFile    string    `json:"span_file,omitempty"`
	Notes       []string  `json:"notes,omitempty"`
}

func newResult(name, why string, o runOpts) *result {
	return &result{Workload: name, Why: why, Seed: o.seed, Traced: o.trace,
		WindowS: o.window.Seconds(), Metrics: metricSet{}}
}

// note keeps the first few diagnostics of a run; a failing run can produce
// thousands of identical ones.
func (r *result) note(format string, args ...any) {
	if len(r.Notes) < 8 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// failedShare is failed operations over attempted ones.
func (r *result) failedShare() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }
