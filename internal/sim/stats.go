package sim

import "repro/internal/stats"

// Aggregates over a Result, matching the paper's reported metrics.

// MeanIndexTuningBytes is the average per-client tuning time spent on index
// lookup (the y-axis of Fig. 11, in bytes).
func (r *Result) MeanIndexTuningBytes() float64 {
	return meanOver(r.Clients, func(c ClientStats) float64 { return float64(c.IndexTuningBytes) })
}

// MeanDocTuningBytes is the average per-client tuning time spent downloading
// result documents.
func (r *Result) MeanDocTuningBytes() float64 {
	return meanOver(r.Clients, func(c ClientStats) float64 { return float64(c.DocTuningBytes) })
}

// MeanTuningBytes is the average total tuning time (index + documents).
func (r *Result) MeanTuningBytes() float64 {
	return meanOver(r.Clients, func(c ClientStats) float64 {
		return float64(c.IndexTuningBytes + c.DocTuningBytes)
	})
}

// MeanAccessBytes is the average access time in bytes.
func (r *Result) MeanAccessBytes() float64 {
	return meanOver(r.Clients, func(c ClientStats) float64 { return float64(c.AccessBytes) })
}

// MeanCyclesListened is the average number of cycles a client attends before
// its query completes (the paper reports 11.8 under its default setup).
func (r *Result) MeanCyclesListened() float64 {
	return meanOver(r.Clients, func(c ClientStats) float64 { return float64(c.CyclesListened) })
}

// MeanCycleBytes is the average on-air cycle length in aggregate byte-time
// (the serial segment sum on one channel; K × the slowest channel otherwise).
func (r *Result) MeanCycleBytes() float64 {
	return meanCycles(r.Cycles, func(c CycleStats) float64 { return float64(c.DurationBytes) })
}

// MeanIndexBytes is the average per-cycle index segment size (L_I).
func (r *Result) MeanIndexBytes() float64 {
	return meanCycles(r.Cycles, func(c CycleStats) float64 { return float64(c.IndexBytes) })
}

// MeanSecondTierBytes is the average per-cycle second-tier size (L_O).
func (r *Result) MeanSecondTierBytes() float64 {
	return meanCycles(r.Cycles, func(c CycleStats) float64 { return float64(c.SecondTierBytes) })
}

// NumCycles reports how many cycles the run broadcast.
func (r *Result) NumCycles() int { return len(r.Cycles) }

// MeanIndexRepetitions is the mean number of complete index-channel
// repetition units aired per cycle (1.0 on single-channel runs).
func (r *Result) MeanIndexRepetitions() float64 {
	return meanCycles(r.Cycles, func(c CycleStats) float64 { return float64(c.IndexRepetitions) })
}

// EavesdropClients counts clients that caught at least one result document
// before admission by syncing on an index-channel repetition (multichannel
// runs only; always zero on a single channel).
func (r *Result) EavesdropClients() int {
	n := 0
	for _, c := range r.Clients {
		if c.EavesdropDocs > 0 {
			n++
		}
	}
	return n
}

// AccessBytesPercentile returns the p-th percentile (0..100) of per-client
// access time, for tail-latency reporting beyond the paper's means.
func (r *Result) AccessBytesPercentile(p float64) float64 {
	return stats.Percentile(r.clientSeries(func(c ClientStats) float64 { return float64(c.AccessBytes) }), p)
}

// IndexTuningBytesPercentile returns the p-th percentile of per-client index
// tuning time.
func (r *Result) IndexTuningBytesPercentile(p float64) float64 {
	return stats.Percentile(r.clientSeries(func(c ClientStats) float64 { return float64(c.IndexTuningBytes) }), p)
}

func (r *Result) clientSeries(f func(ClientStats) float64) []float64 {
	out := make([]float64, len(r.Clients))
	for i, c := range r.Clients {
		out[i] = f(c)
	}
	return out
}

func meanOver(cs []ClientStats, f func(ClientStats) float64) float64 {
	if len(cs) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cs {
		sum += f(c)
	}
	return sum / float64(len(cs))
}

func meanCycles(cs []CycleStats, f func(CycleStats) float64) float64 {
	if len(cs) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cs {
		sum += f(c)
	}
	return sum / float64(len(cs))
}
