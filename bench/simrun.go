package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xmldoc"
)

// paper_sim drives the byte-clock simulator: no sockets, no wall clock in
// the result, so access and tuning time repeat bit for bit for one seed.
const (
	simRequests       = 10_000
	simArrivalSpacing = 100 // bytes between consecutive request arrivals
	// nominalBytesPerMS turns byte-clock access time into milliseconds at
	// the paced workloads' channel rate: one cycleCapacity per paced tick.
	nominalBytesPerMS = cycleCapacity / 10
)

// simRequestsFor draws the simulator's client workload: queries uniform over
// the pool, arrivals evenly spaced on the byte clock.
func simRequestsFor(in *inputs, n int) []sim.ClientRequest {
	r := rand.New(rand.NewSource(in.seed + 4_000_037))
	reqs := make([]sim.ClientRequest, n)
	for i := range reqs {
		reqs[i] = sim.ClientRequest{
			Query:   in.pool[r.Intn(len(in.pool))],
			Arrival: int64(i) * simArrivalSpacing,
		}
	}
	return reqs
}

// simLeg is one simulator configuration over the same collection and
// requests.
type simLeg struct {
	name string
	cfg  func(*sim.Config)
}

var simLegs = []simLeg{
	{"two_tier", func(c *sim.Config) {}},
	{"one_tier", func(c *sim.Config) { c.Mode = broadcast.OneTierMode }},
	{"succinct", func(c *sim.Config) { c.IndexEncoding = core.EncodingSuccinct }},
	{"k4", func(c *sim.Config) { c.Channels = 4 }},
	{"compress", func(c *sim.Config) { c.Compress = true }},
}

func runSimLeg(in *inputs, reqs []sim.ClientRequest, leg simLeg, probe *traceProbe) (*sim.Result, error) {
	cfg := sim.Config{
		Collection:    in.coll,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: cycleCapacity,
		Requests:      reqs,
	}
	if probe != nil {
		cfg.Probe = probe
	}
	leg.cfg(&cfg)
	out, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim leg %s: %w", leg.name, err)
	}
	return out, nil
}

// checkSim verifies one leg against the oracle: every simulated client was
// handed exactly its query's answer set and finished.
func checkSim(in *inputs, reqs []sim.ClientRequest, out *sim.Result, res *result) {
	byQuery := make(map[string][]xmldoc.DocID, len(in.pool))
	for i, q := range in.pool {
		byQuery[q.String()] = in.answers[i]
	}
	for i, c := range out.Clients {
		res.Attempted++
		want := byQuery[reqs[i].Query.String()]
		ok := len(c.Docs) == len(want) && c.AccessBytes > 0 && c.IndexTuningBytes+c.DocTuningBytes <= c.AccessBytes
		for k := 0; ok && k < len(want); k++ {
			ok = c.Docs[k] == want[k]
		}
		if !ok {
			res.Failed++
			res.Wrong++
			res.note("sim client %d (%s): docs %v, oracle %v, access %d", i, reqs[i].Query, c.Docs, want, c.AccessBytes)
		}
	}
}

func runSim(w workload, o runOpts) (*result, error) {
	res := newResult(w.name, w.why, o)
	reps, nreq := setupReps, simRequests
	if o.quick {
		reps, nreq = 1, simRequests/25
	}
	var in *inputs
	var reqs []sim.ClientRequest
	var setups []float64
	setUp := func() error {
		t := time.Now()
		var err error
		if in, err = makeInputs(o.seed, 100, 100); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		reqs = simRequestsFor(in, nreq)
		setups = append(setups, time.Since(t).Seconds())
		return nil
	}
	// Half the set-ups are timed before the run and half after (see runNet).
	for i := 0; i <= reps/2; i++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	if err := simMeasure(res, in, reqs, o); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for len(setups) < reps {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	if !o.trace {
		res.Metrics.set("setup_s", percentile(setups, 0.5), len(setups))
	}
	return res, nil
}

// simMeasure runs the simulator legs over generated inputs and fills res
// with everything but the set-up time.
func simMeasure(res *result, in *inputs, reqs []sim.ClientRequest, o runOpts) error {
	res.Fingerprint = fmt.Sprintf("%016x", in.fingerprint())
	m := res.Metrics

	if !o.trace {
		// The end-to-end leg, two-tier over the node stream, run back to
		// back for the window. The byte counts come from the first run (all
		// runs must be identical); each wall-clock cost is the median over
		// the repetitions (see setProcE2E).
		first, err := runSimLeg(in, reqs, simLegs[0], nil)
		if err != nil {
			return err
		}
		checkSim(in, reqs, first, res)
		heap := startHeapSampler()
		snaps, cycles := []procSnap{snapProc()}, []int64{0}
		for deadline := time.Now().Add(o.window); ; {
			out, err := runSimLeg(in, reqs, simLegs[0], nil)
			if err != nil {
				return err
			}
			snaps = append(snaps, snapProc())
			cycles = append(cycles, cycles[len(cycles)-1]+int64(out.NumCycles()))
			if out.MeanAccessBytes() != first.MeanAccessBytes() || out.MeanTuningBytes() != first.MeanTuningBytes() {
				res.Failed++
				res.note("simulator did not repeat: access %v vs %v", out.MeanAccessBytes(), first.MeanAccessBytes())
			}
			if !time.Now().Before(deadline) {
				break
			}
		}
		heap.finish(m)
		m.setProcE2E(snaps, cycles)
		res.Correct = res.Wrong == 0 && res.Failed == 0
		m.set("latency_p50_ms", first.AccessBytesPercentile(50)/nominalBytesPerMS, len(first.Clients))
		m.set("latency_p90_ms", first.AccessBytesPercentile(90)/nominalBytesPerMS, len(first.Clients))
		m.set("access_bytes_mean", first.MeanAccessBytes(), len(first.Clients))
		m.set("tuning_bytes_mean", first.MeanTuningBytes(), len(first.Clients))
		return nil
	}

	probe := &traceProbe{}
	p0 := snapProc()
	outs := make(map[string]*sim.Result, len(simLegs))
	for i, leg := range simLegs {
		var p *traceProbe
		if i == 0 {
			p = probe
		}
		t := time.Now()
		out, err := runSimLeg(in, reqs, leg, p)
		if err != nil {
			return err
		}
		if i == 0 {
			m.set("sim.run_ms", ms(time.Since(t)), 1)
		}
		checkSim(in, reqs, out, res)
		outs[leg.name] = out
	}
	p1 := snapProc()
	res.Correct = res.Wrong == 0
	two, one, suc, k4, comp := outs["two_tier"], outs["one_tier"], outs["succinct"], outs["k4"], outs["compress"]
	n := len(reqs)
	m.set("sim.two_tier.index_bytes_mean", two.MeanIndexBytes(), two.NumCycles())
	m.set("sim.two_tier.cycle_bytes_mean", two.MeanCycleBytes(), two.NumCycles())
	m.set("sim.two_tier.cycles", float64(two.NumCycles()), 1)
	m.set("sim.one_tier.access_bytes_mean", one.MeanAccessBytes(), n)
	m.set("sim.one_tier.tuning_bytes_mean", one.MeanTuningBytes(), n)
	m.set("sim.one_tier.index_bytes_mean", one.MeanIndexBytes(), one.NumCycles())
	m.set("sim.succinct.index_bytes_mean", suc.MeanIndexBytes(), suc.NumCycles())
	m.set("sim.succinct.index_tuning_bytes_mean", suc.MeanIndexTuningBytes(), n)
	m.set("sim.k4.access_bytes_mean", k4.MeanAccessBytes(), n)
	m.set("sim.k4.tuning_bytes_mean", k4.MeanTuningBytes(), n)
	m.set("sim.compress.access_bytes_mean", comp.MeanAccessBytes(), n)
	m.set("sim.compress.cycle_bytes_mean", comp.MeanCycleBytes(), comp.NumCycles())
	var cycles int64
	for _, out := range outs {
		cycles += int64(out.NumCycles())
	}
	probe.engineMetrics(m, p0.at, p1.at)
	m.setProcLayer(p0, p1, cycles)
	return nil
}
