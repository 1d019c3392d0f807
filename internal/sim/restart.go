package sim

import (
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

// restartReq is one pending request of the restart driver; rem is its own
// sorted, duplicate-free set of undelivered documents.
type restartReq struct {
	id      int64
	arrival int64
	query   xpath.Path
	rem     []xmldoc.DocID
}

// RunRestart executes a deterministic cycle-clocked broadcast run over a
// durability journal. With CrashSeed or TornAfter set, the run is killed
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
	if cfg.Model == (core.SizeModel{}) {
		cfg.Model = core.DefaultSizeModel()
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = schedule.LeeLo{}
	}
	if cfg.Channels == 0 {
		cfg.Channels = 1
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

// restartLeg runs one process lifetime: open (recover) the journal, restore
// the pending set, and commit cycles until cfg.Cycles or the injected crash.
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
	if !recovery && cfg.TornAfter > 0 {
		jn.CrashAfter(cfg.TornAfter)
	}
	// The recovered engine starts cold — an empty demand index and pruned
	// view — while an uncrashed control has maintained both by deltas since
	// cycle 0, so equivalence between the two also says the delta paths air
	// what a fresh engine computes from the recovered state alone.
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

	// Restore the recovered pending set; replay order is admission order.
	pending := make([]*restartReq, 0, len(st.Pending))
	for _, jr := range st.Pending {
		q, perr := xpath.Parse(jr.Query)
		if perr != nil {
			return false, fmt.Errorf("sim: recovered query %q: %w", jr.Query, perr)
		}
		rem := make([]xmldoc.DocID, len(jr.Remaining))
		for i, d := range jr.Remaining {
			rem[i] = xmldoc.DocID(d)
		}
		slices.Sort(rem)
		pending = append(pending, &restartReq{id: jr.ID, arrival: jr.Arrival, query: q, rem: slices.Compact(rem)})
	}
	nextID := st.NextID
	// Admissions are journaled one by one in script order, so the durable
	// NextID is exactly the length of the already-admitted script prefix.
	si := int(nextID)
	if si > len(cfg.Script) {
		return false, fmt.Errorf("sim: journal NextID %d exceeds script length %d", nextID, len(cfg.Script))
	}

	// crashExit classifies a journal append failure: the injected crash ends
	// the leg, anything else is a real error.
	crashExit := func(cycle int64, stage string, aerr error) (bool, error) {
		if !errors.Is(aerr, journal.ErrClosed) {
			return false, aerr
		}
		if recovery {
			return true, nil
		}
		res.CrashCycle = cycle
		if crasher != nil && crasher.Fired() {
			stage = crasher.Stage()
		}
		res.CrashStage = stage
		return true, nil
	}

	for cycle := st.Cycles; cycle < cfg.Cycles; cycle++ {
		// Admit this cycle's scripted arrivals. The admit record is durable
		// before the request enters the in-memory pending set — the driver
		// analogue of ack-after-durability.
		for si < len(cfg.Script) && cfg.Script[si].Cycle <= cycle {
			e := cfg.Script[si]
			docs, rerr := eng.Resolve(e.Query)
			if rerr != nil {
				return false, rerr
			}
			if len(docs) == 0 {
				return false, fmt.Errorf("sim: scripted query %q has an empty result set", e.Query)
			}
			id := nextID + 1
			jrem := make([]uint16, len(docs))
			for k, d := range docs {
				jrem[k] = uint16(d)
			}
			if aerr := jn.Admit(journal.Request{ID: id, Arrival: cycle, Query: e.Query.String(), Remaining: jrem}); aerr != nil {
				return crashExit(cycle, "journal-append", aerr)
			}
			nextID = id
			pending = append(pending, &restartReq{id: id, arrival: cycle, query: e.Query, rem: slices.Clone(docs)})
			si++
		}
		if len(pending) == 0 {
			// Nothing to air: commit an empty cycle so the cycle counter
			// stays aligned with the journal across a crash here.
			if cerr := jn.Commit(cycle, nil); cerr != nil {
				return crashExit(cycle, "journal-append", cerr)
			}
			res.CycleHashes = append(res.CycleHashes, emptyCycleHash(cycle))
			res.PendingKeys = append(res.PendingKeys, "")
			continue
		}

		eps := make([]engine.Pending, 0, len(pending))
		for _, r := range pending {
			eps = append(eps, engine.Pending{ID: r.id, Query: r.query, Arrival: r.arrival, Remaining: r.rem})
		}
		cy, err := eng.AssembleCycle(cycle, cycle, eps)
		if err != nil {
			return false, err
		}
		enc, err := eng.EncodeCycle(cy)
		if err != nil {
			return false, err
		}
		h, err := hashCycleWire(cy, enc)
		eng.Recycle(enc)
		if err != nil {
			return false, err
		}

		// Plan retirement without mutating: the shrinkage applies only once
		// the commit is durable, so a crash here re-airs this cycle from the
		// unchanged pending set.
		plan := make([][]xmldoc.DocID, len(pending))
		var deliveries []journal.Delivery
		for i, r := range pending {
			recv := cy.Commitments(nil, r.rem, cycle == r.arrival)
			if len(recv) == 0 {
				continue
			}
			ids := make([]xmldoc.DocID, len(recv))
			docs := make([]uint16, len(recv))
			for k, p := range recv {
				ids[k] = p.ID
				docs[k] = uint16(p.ID)
			}
			plan[i] = ids
			deliveries = append(deliveries, journal.Delivery{ID: r.id, Docs: docs, Retired: len(ids) == len(r.rem)})
		}
		if cerr := jn.Commit(cycle, deliveries); cerr != nil {
			return crashExit(cycle, "journal-append", cerr)
		}
		var live []*restartReq
		for i, r := range pending {
			for _, d := range plan[i] {
				r.rem = xmldoc.RemoveID(r.rem, d)
			}
			if len(r.rem) == 0 {
				res.ServedCycle[r.id] = cycle
			} else {
				live = append(live, r)
			}
		}
		pending = live
		res.CycleHashes = append(res.CycleHashes, h)
		res.PendingKeys = append(res.PendingKeys, pendingKey(pending))
		if cfg.Observer != nil {
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

// hashCycleWire fingerprints everything a cycle puts on air: the catalog,
// every encoded segment in broadcast order, and the per-channel document
// layout. Two cycles with equal hashes are wire-identical.
func hashCycleWire(cy *engine.Cycle, enc *engine.Encoded) (uint64, error) {
	h := fnv.New64a()
	var scratch [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(v))
		h.Write(scratch[:])
	}
	seg := func(b []byte) {
		writeInt(int64(len(b)))
		h.Write(b)
	}
	writeInt(cy.Number)
	writeInt(int64(len(cy.Docs)))
	cat, err := cy.Catalog.Encode()
	if err != nil {
		return 0, err
	}
	seg(cat)
	seg(enc.ChannelDir)
	seg(enc.Index)
	seg(enc.SecondTier)
	for _, st := range enc.SecondTiers {
		seg(st)
	}
	for _, d := range enc.Docs {
		seg(d)
	}
	for _, lay := range cy.Channels {
		writeInt(int64(len(lay.Docs)))
		for _, p := range lay.Docs {
			writeInt(int64(p.ID))
		}
	}
	return h.Sum64(), nil
}

// pendingKey canonicalises a pending set: requests in admission order, each
// with its sorted remaining documents.
func pendingKey(pending []*restartReq) string {
	var b strings.Builder
	for _, r := range pending {
		fmt.Fprintf(&b, "%d@%d:%v;", r.id, r.arrival, r.rem)
	}
	return b.String()
}
