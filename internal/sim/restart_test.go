package sim

import (
	"reflect"
	"testing"

	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// restartScript builds a NITF collection and an admission script spreading
// numReqs requests over the first spread cycles of a run.
func restartScript(t *testing.T, numDocs, numReqs int, spread int64, seed int64) (*xmldoc.Collection, []ScriptedRequest) {
	t.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: numDocs, Seed: seed})
	if err != nil {
		t.Fatalf("Documents: %v", err)
	}
	pool, err := gen.Queries(c, gen.QueryConfig{NumQueries: 30, MaxDepth: 5, WildcardProb: 0.2, Seed: seed + 1})
	if err != nil {
		t.Fatalf("Queries: %v", err)
	}
	qs, err := gen.Requests(pool, gen.WorkloadConfig{NumRequests: numReqs, ZipfS: 1.5, Seed: seed + 2})
	if err != nil {
		t.Fatalf("Requests: %v", err)
	}
	// Keep only queries with non-empty result sets, admitted in waves so
	// demand keeps arriving while earlier requests are still being served.
	script := make([]ScriptedRequest, 0, len(qs))
	for i, q := range qs {
		if len(q.MatchingDocs(c)) == 0 {
			continue
		}
		script = append(script, ScriptedRequest{Cycle: int64(i) * spread / int64(len(qs)), Query: q})
	}
	if len(script) < 5 {
		t.Fatalf("workload too sparse: %d scripted requests", len(script))
	}
	return c, script
}

// assertEquivalent fails unless the crashed-and-recovered run reproduced the
// control run record for record.
func assertEquivalent(t *testing.T, control, crashed *RestartResult) {
	t.Helper()
	if !crashed.Crashed {
		t.Fatalf("crash run did not crash")
	}
	if crashed.Generation != 2 {
		t.Fatalf("crash run generation = %d, want 2", crashed.Generation)
	}
	if len(crashed.CycleHashes) != len(control.CycleHashes) {
		t.Fatalf("crashed run committed %d cycles, control %d", len(crashed.CycleHashes), len(control.CycleHashes))
	}
	for i := range control.CycleHashes {
		if crashed.CycleHashes[i] != control.CycleHashes[i] {
			t.Errorf("cycle %d wire hash diverged after crash at cycle %d stage %q: %x != %x",
				i, crashed.CrashCycle, crashed.CrashStage, crashed.CycleHashes[i], control.CycleHashes[i])
		}
		if crashed.PendingKeys[i] != control.PendingKeys[i] {
			t.Errorf("cycle %d pending set diverged after crash at cycle %d stage %q:\n  got  %s\n  want %s",
				i, crashed.CrashCycle, crashed.CrashStage, crashed.PendingKeys[i], control.PendingKeys[i])
		}
	}
	if !reflect.DeepEqual(crashed.ServedCycle, control.ServedCycle) {
		t.Errorf("served map diverged after crash at cycle %d stage %q:\n  got  %v\n  want %v",
			crashed.CrashCycle, crashed.CrashStage, crashed.ServedCycle, control.ServedCycle)
	}
}

// TestRestartEquivalence is the tentpole proof: a 60-cycle run killed at a
// seed-randomized pipeline stage and recovered from its journal commits the
// same cycle wire bytes and pending sets as an uncrashed control, at K=1 and
// K=4 — no acked admission is lost and every multichannel commitment is
// honored across the restart. The control maintains its demand index and
// pruned view by deltas throughout (asserted), the recovered engine rebuilds
// both cold, so this is cold-recovered ≡ warm-uninterrupted.
func TestRestartEquivalence(t *testing.T) {
	const cycles = 60
	for _, k := range []int{1, 4} {
		t.Run(map[int]string{1: "K1", 4: "K4"}[k], func(t *testing.T) {
			coll, script := restartScript(t, 15, 90, 58, 0xC0FFEE+int64(k))
			base := RestartConfig{
				Collection: coll,
				Channels:   k,
				// Two average documents per cycle keeps demand queued through
				// the whole run, so every cycle assembles (and every crash
				// seed's probe point is reached).
				CycleCapacity: 2 * coll.TotalSize() / coll.Len(),
				Script:        script,
				Cycles:        cycles,
			}
			ctrl := base
			ctrl.StateDir = t.TempDir()
			control, err := RunRestart(ctrl)
			if err != nil {
				t.Fatalf("control run: %v", err)
			}
			if control.Crashed || control.Generation != 1 {
				t.Fatalf("control run crashed=%v generation=%d", control.Crashed, control.Generation)
			}
			if len(control.CycleHashes) != cycles {
				t.Fatalf("control committed %d cycles, want %d", len(control.CycleHashes), cycles)
			}
			if len(control.ServedCycle) == 0 {
				t.Fatalf("control run served nothing")
			}
			if m := control.Engine; m.IncrementalSchedules == 0 || m.IncrementalPrunes == 0 {
				t.Fatalf("control run took %d incremental schedules and %d incremental prunes; both must be > 0 or the comparison is reference against reference",
					m.IncrementalSchedules, m.IncrementalPrunes)
			}
			for i, key := range control.PendingKeys {
				if key == "" {
					t.Fatalf("cycle %d aired nothing; densify the script so every crash seed's probe point is reached", i)
				}
			}
			for seed := int64(1); seed <= 4; seed++ {
				cfg := base
				cfg.StateDir = t.TempDir()
				cfg.CrashSeed = seed<<8 | int64(k)
				crashed, err := RunRestart(cfg)
				if err != nil {
					t.Fatalf("crash run seed %d: %v", seed, err)
				}
				t.Logf("seed %d: crashed at cycle %d stage %q, recovered %d pending",
					seed, crashed.CrashCycle, crashed.CrashStage, crashed.RecoveredPending)
				assertEquivalent(t, control, crashed)
			}
		})
	}
}

// TestRestartTornWrite crashes the journal mid-append — a torn record tail
// on disk — and checks recovery truncates the tail and still reproduces the
// control run exactly.
func TestRestartTornWrite(t *testing.T) {
	coll, script := restartScript(t, 12, 25, 30, 42)
	base := RestartConfig{
		Collection:    coll,
		Channels:      1,
		CycleCapacity: capacityFor(coll),
		Script:        script,
		Cycles:        40,
	}
	ctrl := base
	ctrl.StateDir = t.TempDir()
	control, err := RunRestart(ctrl)
	if err != nil {
		t.Fatalf("control run: %v", err)
	}
	cfg := base
	cfg.StateDir = t.TempDir()
	cfg.TornAfter = 777 // tears a record mid-frame partway into the run
	crashed, err := RunRestart(cfg)
	if err != nil {
		t.Fatalf("torn-write run: %v", err)
	}
	if !crashed.RecoveredTruncated {
		t.Errorf("recovery did not report a truncated tail")
	}
	assertEquivalent(t, control, crashed)
}

// TestRestartEavesdropAfterRecovery proves the access-time payoff survives a
// restart: a client whose request arrives while the recovered server's first
// post-crash multichannel cycle is already on air can sync on an index
// repetition (SyncAfter) and catch still-airing documents (CommitmentsFrom)
// — the hot-section eavesdrop of sim's multichannel protocol, served by a
// process that recovered its pending set from the journal.
func TestRestartEavesdropAfterRecovery(t *testing.T) {
	coll, script := restartScript(t, 15, 40, 50, 7)
	var first *engine.Cycle
	cfg := RestartConfig{
		Collection:    coll,
		Channels:      4,
		CycleCapacity: capacityFor(coll),
		Script:        script,
		Cycles:        60,
		StateDir:      t.TempDir(),
		CrashSeed:     3,
		Observer: func(recovery bool, cy *engine.Cycle) {
			if recovery && first == nil && len(cy.Docs) > 0 {
				first = cy
			}
		},
	}
	res, err := RunRestart(cfg)
	if err != nil {
		t.Fatalf("RunRestart: %v", err)
	}
	if !res.Crashed {
		t.Fatalf("run did not crash")
	}
	if first == nil {
		t.Fatalf("no non-empty cycle committed after recovery")
	}
	if len(first.Channels) != 4 {
		t.Fatalf("recovered cycle has %d channels, want 4", len(first.Channels))
	}
	// A request arriving one byte into the recovered cycle finds a later
	// index repetition to sync on.
	sync, ok := first.SyncAfter(first.Start + 1)
	if !ok {
		t.Fatalf("no index repetition to sync on (repetitions=%d)", first.IndexRepetitions())
	}
	if sync <= first.Start || sync >= first.End() {
		t.Fatalf("sync point %d outside cycle (%d, %d)", sync, first.Start, first.End())
	}
	// The eavesdropper wants everything this cycle airs; whatever commits
	// after the sync point is catchable before the server even admits it.
	var needed []xmldoc.DocID
	for _, p := range first.Docs {
		needed = xmldoc.InsertID(needed, p.ID)
	}
	cms := first.CommitmentsFrom(nil, needed, sync, nil)
	if len(cms) == 0 {
		t.Fatalf("restarted server's cycle offers no eavesdroppable commitments after sync %d", sync)
	}
	for _, cm := range cms {
		if !xmldoc.HasID(needed, cm.ID) {
			t.Errorf("commitment for unneeded doc %d", cm.ID)
		}
		if cm.Start < sync {
			t.Errorf("commitment for doc %d starts %d before sync %d", cm.ID, cm.Start, sync)
		}
	}
}

// TestRestartScriptValidation covers the driver's config errors.
func TestRestartScriptValidation(t *testing.T) {
	coll, script := restartScript(t, 8, 10, 5, 99)
	bad := []RestartConfig{
		{CycleCapacity: 1, Script: script, Cycles: 1, StateDir: t.TempDir()},
		{Collection: coll, Script: script, Cycles: 1, StateDir: t.TempDir()},
		{Collection: coll, CycleCapacity: 1000, Cycles: 1, StateDir: t.TempDir()},
		{Collection: coll, CycleCapacity: 1000, Script: script, StateDir: t.TempDir()},
		{Collection: coll, CycleCapacity: 1000, Script: script, Cycles: 1},
	}
	for i, cfg := range bad {
		if _, err := RunRestart(cfg); err == nil {
			t.Errorf("config %d: no error", i)
		}
	}
	// An empty-result query is rejected at admission time.
	if _, err := RunRestart(RestartConfig{
		Collection:    coll,
		CycleCapacity: 1000,
		Script:        []ScriptedRequest{{Cycle: 0, Query: xpath.MustParse("/no/such/path")}},
		Cycles:        5,
		StateDir:      t.TempDir(),
	}); err == nil {
		t.Errorf("empty-result scripted query: no error")
	}
}
