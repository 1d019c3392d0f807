package sim

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/netcast/chaos"
	"repro/internal/schedule"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// ScriptedRequest is one admission of a restart-equivalence script: the
// query enters the pending set at the start of the named cycle. Script order
// is admission order, so entry i is assigned durable request ID i+1 — which
// is what lets a recovered run skip exactly the admissions the journal
// already holds.
type ScriptedRequest struct {
	// Cycle is the admission cycle number.
	Cycle int64
	// Query is the client's XPath request; its result set must be non-empty.
	Query xpath.Path
}

// RestartScript builds the admission script of a restart check: queries
// whose result set is empty never enter the pending set and are dropped; the
// rest are dealt round-robin over the first two thirds of cycles, so a crash
// always has live pending state around it. Same-cycle entries keep their
// order in queries, which fixes the request IDs.
func RestartScript(c *xmldoc.Collection, queries []xpath.Path, cycles int64) []ScriptedRequest {
	span := max(cycles*2/3, 1)
	var script []ScriptedRequest
	for _, q := range queries {
		if len(q.MatchingDocs(c)) > 0 {
			script = append(script, ScriptedRequest{Cycle: int64(len(script)) % span, Query: q})
		}
	}
	slices.SortStableFunc(script, func(a, b ScriptedRequest) int { return cmp.Compare(a.Cycle, b.Cycle) })
	return script
}

// RestartConfig parameterises RunRestart: a deterministic, cycle-clocked
// broadcast run over a durability journal, with an optional mid-run crash.
type RestartConfig struct {
	// Collection is the server's document set. Required.
	Collection *xmldoc.Collection
	// Model fixes on-air widths. Zero selects the default.
	Model core.SizeModel
	// Scheduler plans cycles. Nil selects schedule.LeeLo.
	Scheduler schedule.Scheduler
	// Channels is the broadcast channel count K; 0 or 1 is single-channel.
	Channels int
	// CycleCapacity is the per-cycle document budget in bytes. Required.
	CycleCapacity int
	// Script is the admission schedule, sorted by Cycle. Required.
	Script []ScriptedRequest
	// Cycles is the number of cycles to commit. Required. A cycle with
	// nothing pending airs nothing but still commits (an empty commit), so
	// the in-memory and durable cycle counters never drift.
	Cycles int64
	// StateDir is the journal directory. Required.
	StateDir string
	// Fsync and SnapshotEvery configure the journal (see journal.Options).
	Fsync         bool
	SnapshotEvery int
	// CrashSeed, when non-zero, installs a chaos.Crasher probe that kills
	// the journal at a seed-chosen pipeline stage of a seed-chosen cycle;
	// the run then recovers from the journal and continues. Zero runs
	// crash-free (the control).
	CrashSeed int64
	// TornAfter, when positive, arms a torn-write crash instead: the journal
	// accepts this many more bytes of appended records, then dies mid-frame.
	TornAfter int64
	// Observer, when non-nil, receives every committed cycle; recovery is
	// true for cycles committed after the crash-recovery. Tests use it to
	// eavesdrop on the restarted server's air.
	Observer func(recovery bool, cy *engine.Cycle)
}

// RestartResult is the outcome of a RunRestart: per-cycle wire fingerprints
// and pending-set keys (the equivalence evidence), plus what the crash and
// recovery looked like.
type RestartResult struct {
	// CycleHashes holds one FNV-64a fingerprint per committed cycle, in
	// cycle order, covering every wire segment the cycle put on air.
	CycleHashes []uint64
	// PendingKeys holds the canonical pending-set key after each cycle's
	// commit, in cycle order.
	PendingKeys []string
	// ServedCycle maps each retired request ID to the cycle that drained it.
	ServedCycle map[int64]int64
	// Crashed reports that the run hit its injected crash and recovered.
	Crashed bool
	// CrashCycle is the cycle being assembled when the crash hit;
	// CrashStage names the pipeline stage (or "journal-append" for a torn
	// write outside the probe points).
	CrashCycle int64
	CrashStage string
	// Generation is the journal generation of the last leg (1 for a
	// crash-free run on a fresh directory, 2 after one recovery).
	Generation uint32
	// RecoveredPending is the pending-set size the recovery leg restored;
	// RecoveredTruncated reports that recovery dropped a torn log tail.
	RecoveredPending   int
	RecoveredTruncated bool
	// Engine is the pipeline telemetry of the run's last leg: the whole run
	// when it did not crash, the cold recovered engine's share otherwise.
	Engine engine.Metrics
}

// DivergesFrom names the first place r departs from control — the number of
// committed cycles, a cycle's wire hash, or the pending set after its commit —
// or returns nil when the two runs are equivalent.
func (r *RestartResult) DivergesFrom(control *RestartResult) error {
	if len(control.CycleHashes) != len(r.CycleHashes) {
		return fmt.Errorf("control committed %d cycles, crashed run %d", len(control.CycleHashes), len(r.CycleHashes))
	}
	for i := range control.CycleHashes {
		if control.CycleHashes[i] != r.CycleHashes[i] {
			return fmt.Errorf("cycle %d wire hash diverged: control %016x, recovered %016x", i, control.CycleHashes[i], r.CycleHashes[i])
		}
		if control.PendingKeys[i] != r.PendingKeys[i] {
			return fmt.Errorf("cycle %d pending set diverged", i)
		}
	}
	return nil
}

// RunRestart executes a deterministic cycle-clocked broadcast run over a
// durability journal. It is a scripted driver of engine.Ledger, the request
// lifecycle the networked server runs, so what it crashes is the code that
// serves. With CrashSeed or TornAfter set, the run is killed
// mid-pipeline, recovered from the journal, and resumed — admissions the
// journal already holds are skipped by durable-ID prefix, so the recovered
// run re-airs the uncommitted cycle from exactly the pending set the crash
// froze. The returned per-cycle wire hashes and pending keys are the
// equivalence evidence: a crashed-and-recovered run must produce the same
// sequence as a crash-free control run of the same script.
func RunRestart(cfg RestartConfig) (*RestartResult, error) {
	if cfg.Collection == nil || cfg.Collection.Len() == 0 {
		return nil, fmt.Errorf("sim: RestartConfig.Collection is required")
	}
	if cfg.CycleCapacity <= 0 {
		return nil, fmt.Errorf("sim: RestartConfig.CycleCapacity must be positive")
	}
	if cfg.Cycles <= 0 {
		return nil, fmt.Errorf("sim: RestartConfig.Cycles must be positive")
	}
	if len(cfg.Script) == 0 {
		return nil, fmt.Errorf("sim: RestartConfig.Script is required")
	}
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("sim: RestartConfig.StateDir is required")
	}
	res := &RestartResult{ServedCycle: make(map[int64]int64)}
	crashed, err := restartLeg(cfg, res, false)
	if err != nil {
		return nil, err
	}
	if crashed {
		res.Crashed = true
		again, err := restartLeg(cfg, res, true)
		if err != nil {
			return nil, err
		}
		if again {
			return nil, fmt.Errorf("sim: journal died again during the recovery leg")
		}
	}
	return res, nil
}

// restartLeg runs one process lifetime: open (recover) the journal, recover
// the ledger, and commit cycles until cfg.Cycles or the injected crash.
// Reports whether the leg ended in a crash.
func restartLeg(cfg RestartConfig, res *RestartResult, recovery bool) (crashed bool, err error) {
	jn, st, err := journal.Open(journal.Options{
		Dir:           cfg.StateDir,
		Fsync:         cfg.Fsync,
		SnapshotEvery: cfg.SnapshotEvery,
	})
	if err != nil {
		return false, err
	}
	closed := false
	defer func() {
		if !closed {
			jn.Kill()
		}
	}()
	res.Generation = st.Generation
	if recovery {
		res.RecoveredPending = len(st.Pending)
		res.RecoveredTruncated = st.Truncated
	}

	var crasher *chaos.Crasher
	var probe engine.Probe
	if !recovery && cfg.CrashSeed != 0 {
		crasher = chaos.NewCrasher(cfg.CrashSeed, int(cfg.Cycles), jn.Kill)
		probe = crasher
	}
	// The recovered engine starts cold — a pruned view with no history and
	// a demand index its ledger builds by applying the recovered requests in
	// ID order — while an uncrashed control has maintained both by deltas
	// (admissions, commits, removals) since cycle 0, so equivalence between
	// the two also says the delta paths air what a fresh engine computes
	// from the recovered state alone.
	eng, err := engine.New(engine.Config{
		Collection:    cfg.Collection,
		Model:         cfg.Model,
		Mode:          broadcast.TwoTierMode,
		Scheduler:     cfg.Scheduler,
		Channels:      cfg.Channels,
		CycleCapacity: cfg.CycleCapacity,
		Probe:         probe,
	})
	if err != nil {
		return false, err
	}
	defer func() { res.Engine = eng.Metrics() }()
	led, err := engine.NewLedger(eng, jn, st)
	if err != nil {
		return false, err
	}
	if !recovery && cfg.TornAfter > 0 {
		jn.CrashAfter(cfg.TornAfter)
	}
	// Admissions are journaled one by one in script order, so the durable
	// NextID is exactly the length of the already-admitted script prefix.
	si := int(st.NextID)
	if si > len(cfg.Script) {
		return false, fmt.Errorf("sim: journal NextID %d exceeds script length %d", st.NextID, len(cfg.Script))
	}

	// crashExit classifies a journal append failure: the injected crash ends
	// the leg, anything else is a real error.
	crashExit := func(cycle int64, aerr error) (bool, error) {
		if !errors.Is(aerr, journal.ErrClosed) {
			return false, aerr
		}
		if recovery {
			return true, nil
		}
		res.CrashCycle = cycle
		res.CrashStage = "journal-append"
		if crasher != nil && crasher.Fired() {
			res.CrashStage = crasher.Stage()
		}
		return true, nil
	}

	for cycle := led.Cycles(); cycle < cfg.Cycles; cycle = led.Cycles() {
		// Admit this cycle's scripted arrivals.
		for ; si < len(cfg.Script) && cfg.Script[si].Cycle <= cycle; si++ {
			if _, _, aerr := led.Admit(cfg.Script[si].Query, 0, cycle); aerr != nil {
				return crashExit(cycle, aerr)
			}
		}
		h := emptyCycleHash(cycle)
		cy, retired, err := led.Air(cycle, func(cy *engine.Cycle, enc *engine.Encoded) error {
			h = hashCycleWire(enc)
			eng.Recycle(enc)
			return nil
		})
		if err == nil && cy == nil {
			// With nothing pending the driver still commits the cycle, empty,
			// so the cycle counter stays aligned with the journal across a
			// crash.
			err = led.Idle()
		}
		if err != nil {
			return crashExit(cycle, err)
		}
		for _, id := range retired {
			res.ServedCycle[id] = cycle
		}
		res.CycleHashes = append(res.CycleHashes, h)
		res.PendingKeys = append(res.PendingKeys, pendingKey(led.Pending()))
		if cy != nil && cfg.Observer != nil {
			cfg.Observer(recovery, cy)
		}
	}
	closed = true
	return false, jn.Close()
}

// emptyCycleHash fingerprints a cycle that aired nothing.
func emptyCycleHash(number int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(number))
	h.Write(b[:])
	return h.Sum64()
}

// hashCycleWire fingerprints everything a cycle puts on air: every channel's
// frames in air order. Frames carry their own lengths, so two cycles with
// equal hashes are wire-identical.
func hashCycleWire(enc *engine.Encoded) uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	for _, frames := range enc.Frames {
		binary.LittleEndian.PutUint64(scratch[:], uint64(len(frames)))
		h.Write(scratch[:])
		for _, f := range frames {
			h.Write(f)
		}
	}
	return h.Sum64()
}

// pendingKey canonicalises a pending set: requests in admission order, each
// with its sorted remaining documents.
func pendingKey(pending []engine.Pending) string {
	var b strings.Builder
	for _, r := range pending {
		fmt.Fprintf(&b, "%d@%d:%v;", r.ID, r.Arrival, r.Remaining)
	}
	return b.String()
}
