package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/engine"
)

// small returns a configuration scaled down for fast tests while keeping the
// qualitative regime (multi-cycle queries, hundreds of pending requests).
func small() Config {
	cfg := Default()
	cfg.NumDocs = 20
	cfg.NQ = 60
	cfg.CycleCapacity = 60_000
	return cfg
}

func cell(t *testing.T, tbl [][]string, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tbl[row][col], err)
	}
	return v
}

func TestFig9Shapes(t *testing.T) {
	cfg := small()

	t.Run("NQ", func(t *testing.T) {
		tbl, err := Fig9(cfg, ParamNQ, []float64{10, 60, 200})
		if err != nil {
			t.Fatalf("Fig9: %v", err)
		}
		if len(tbl.Rows) != 3 {
			t.Fatalf("rows = %d", len(tbl.Rows))
		}
		// CI constant across the sweep; PCI grows with N_Q; PCI <= CI.
		ci0 := cell(t, tbl.Rows, 0, 1)
		for r := range tbl.Rows {
			if cell(t, tbl.Rows, r, 1) != ci0 {
				t.Error("CI size varies across N_Q sweep")
			}
			if cell(t, tbl.Rows, r, 2) > cell(t, tbl.Rows, r, 1) {
				t.Error("PCI exceeds CI")
			}
		}
		if !(cell(t, tbl.Rows, 0, 2) < cell(t, tbl.Rows, 2, 2)) {
			t.Errorf("PCI does not grow with N_Q: %v vs %v", tbl.Rows[0][2], tbl.Rows[2][2])
		}
	})

	t.Run("P", func(t *testing.T) {
		tbl, err := Fig9(cfg, ParamP, []float64{0, 0.3})
		if err != nil {
			t.Fatalf("Fig9: %v", err)
		}
		// PCI grows with P (§4.2: proportional to P).
		if !(cell(t, tbl.Rows, 0, 2) < cell(t, tbl.Rows, 1, 2)) {
			t.Errorf("PCI does not grow with P: %v vs %v", tbl.Rows[0][2], tbl.Rows[1][2])
		}
	})

	t.Run("DQ", func(t *testing.T) {
		tbl, err := Fig9(cfg, ParamDQ, []float64{2, 8})
		if err != nil {
			t.Fatalf("Fig9: %v", err)
		}
		// Deeper queries are more selective: fewer requested docs.
		if !(cell(t, tbl.Rows, 1, 8) <= cell(t, tbl.Rows, 0, 8)) {
			t.Errorf("requested docs grow with D_Q: %v vs %v", tbl.Rows[0][8], tbl.Rows[1][8])
		}
	})
}

func TestFig10TwoTierSmaller(t *testing.T) {
	tbl, err := Fig10(small(), []float64{30, 60})
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	for r := range tbl.Rows {
		one := cell(t, tbl.Rows, r, 1)
		two := cell(t, tbl.Rows, r, 4)
		if two >= one {
			t.Errorf("row %d: two-tier %v not below one-tier %v", r, two, one)
		}
		if saving := cell(t, tbl.Rows, r, 5); saving <= 0 {
			t.Errorf("row %d: saving %v", r, saving)
		}
	}
}

func TestFig11TwoTierWinsAndStable(t *testing.T) {
	tbl, err := Fig11(small(), ParamNQ, []float64{20, 60})
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	var twoTT []float64
	for r := range tbl.Rows {
		one := cell(t, tbl.Rows, r, 1)
		two := cell(t, tbl.Rows, r, 2)
		if two >= one {
			t.Errorf("row %d: two-tier TT %v not below one-tier %v", r, two, one)
		}
		if ratio := cell(t, tbl.Rows, r, 3); ratio <= 1 {
			t.Errorf("row %d: ratio %v", r, ratio)
		}
		twoTT = append(twoTT, two)
	}
	// Stability: the two-tier curve moves less (relatively) than one-tier
	// across the sweep (§4.2 second observation). With only two points this
	// is a coarse check.
	oneSpread := cell(t, tbl.Rows, 1, 1) / cell(t, tbl.Rows, 0, 1)
	twoSpread := twoTT[1] / twoTT[0]
	if twoSpread > oneSpread*1.5 {
		t.Errorf("two-tier spread %.2f much larger than one-tier %.2f", twoSpread, oneSpread)
	}
}

func TestClaims(t *testing.T) {
	tbl, err := Claims(small())
	if err != nil {
		t.Fatalf("Claims: %v", err)
	}
	if len(tbl.Rows) < 8 {
		t.Fatalf("claims rows = %d", len(tbl.Rows))
	}
	out := tbl.Render()
	for _, want := range []string{"CI / data", "cycles listened", "tuning ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("claims table missing %q", want)
		}
	}
}

func TestSetupTable(t *testing.T) {
	tbl, err := Setup(small())
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	out := tbl.Render()
	for _, want := range []string{"N_Q", "D_Q", "packet", "scheduler"} {
		if !strings.Contains(out, want) {
			t.Errorf("setup table missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := small()
	cfg.NQ = 30
	t.Run("schedulers", func(t *testing.T) {
		tbl, err := AblationSchedulers(cfg)
		if err != nil {
			t.Fatalf("AblationSchedulers: %v", err)
		}
		if len(tbl.Rows) != 4 {
			t.Fatalf("rows = %d, want 4 schedulers", len(tbl.Rows))
		}
		for r := range tbl.Rows {
			if ratio := cell(t, tbl.Rows, r, 3); ratio <= 1 {
				t.Errorf("scheduler %s: two-tier not better (ratio %v)", tbl.Rows[r][0], ratio)
			}
		}
	})
	t.Run("packet", func(t *testing.T) {
		tbl, err := AblationPacketSize(cfg, []int{64, 256})
		if err != nil {
			t.Fatalf("AblationPacketSize: %v", err)
		}
		if len(tbl.Rows) != 2 {
			t.Fatalf("rows = %d", len(tbl.Rows))
		}
	})
	t.Run("accounting", func(t *testing.T) {
		tbl, err := AblationAccounting(cfg)
		if err != nil {
			t.Fatalf("AblationAccounting: %v", err)
		}
		for r := range tbl.Rows {
			if ratio := cell(t, tbl.Rows, r, 3); ratio <= 1 {
				t.Errorf("%s: two-tier not better (ratio %v)", tbl.Rows[r][0], ratio)
			}
		}
	})
}

func TestFindAndExperiments(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	for _, want := range []string{"setup", "fig9a", "fig9b", "fig9c", "fig10", "fig11a", "fig11b", "fig11c", "claims"} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, err := Find("fig10"); err != nil {
		t.Errorf("Find(fig10): %v", err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("Find(nope) succeeded")
	}
}

func TestRunAllSmallIsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := small()
	cfg.NQ = 20
	cfg.NumDocs = 10
	var buf bytes.Buffer
	if err := RunAll(&buf, cfg); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := buf.String()
	for _, e := range Experiments() {
		if !strings.Contains(out, "## "+e.ID) {
			t.Errorf("RunAll output missing %q", e.ID)
		}
	}
}

func TestConfigErrors(t *testing.T) {
	cfg := small()
	cfg.Schema = "unknown"
	if _, err := Fig9(cfg, ParamNQ, []float64{5}); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := Fig9(small(), Param(99), []float64{5}); err == nil {
		t.Error("unknown param accepted")
	}
	if ParamNQ.String() != "N_Q" || ParamP.String() != "P" || ParamDQ.String() != "D_Q" {
		t.Error("param strings wrong")
	}
	if got := Param(9).String(); got != "Param(9)" {
		t.Errorf("unknown param = %q", got)
	}
	if DefaultSweep(Param(9)) != nil {
		t.Error("unknown sweep not nil")
	}
}

func TestWithDefaultsFillsEverything(t *testing.T) {
	var zero Config
	got := zero.withDefaults()
	want := Default()
	if got != want {
		t.Errorf("withDefaults() = %+v, want %+v", got, want)
	}
	// Non-zero fields survive.
	custom := Config{NumDocs: 7, Scheduler: "mrf", P: 0.25}
	got = custom.withDefaults()
	if got.NumDocs != 7 || got.Scheduler != "mrf" || got.P != 0.25 {
		t.Errorf("withDefaults clobbered custom fields: %+v", got)
	}
	if got.NQ != want.NQ || got.CycleCapacity != want.CycleCapacity {
		t.Errorf("withDefaults missed defaults: %+v", got)
	}
	// An explicit P = 0 is a workload, not an unset field (bcast-exp -p 0
	// starts from Default and assigns it).
	noWild := Default()
	noWild.P = 0
	if got = noWild.withDefaults(); got.P != 0 {
		t.Errorf("withDefaults turned an explicit P = 0 into %v", got.P)
	}
}

// P = 0 is the first point of the paper's P sweep: it must reach the query
// generator as zero, so the batch has no * or // step at all.
func TestZeroPGeneratesNoWildcards(t *testing.T) {
	for _, p := range []float64{0, 0.3} {
		cfg := small()
		cfg.P = p
		cfg = cfg.withDefaults()
		coll, err := cfg.documents()
		if err != nil {
			t.Fatal(err)
		}
		queries, err := cfg.queries(coll, cfg.NQ, cfg.P, cfg.DQ)
		if err != nil {
			t.Fatal(err)
		}
		wild := 0
		for _, q := range queries {
			if q.HasWildcards() {
				wild++
			}
		}
		if (p == 0) != (wild == 0) {
			t.Errorf("P = %v: %d of %d queries have wildcards", p, wild, len(queries))
		}
	}
}

// simConfig is the only bridge from the harness's Config to the simulator's:
// limits always cross it, the layout knobs cross
// it on two-tier legs only, and Compress follows the config on both.
func TestSimConfig(t *testing.T) {
	cfg := small()
	cfg.Channels = 4
	cfg.IndexEncoding = core.EncodingSuccinct
	cfg.Compress = true
	cfg.Limits = engine.Limits{MaxAnswerCacheEntries: 9, BuildBudget: time.Second}
	coll, err := cfg.documents()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := cfg.scheduler()
	if err != nil {
		t.Fatal(err)
	}
	queries, err := cfg.queries(coll, 5, cfg.P, cfg.DQ)
	if err != nil {
		t.Fatal(err)
	}
	reqs := cfg.requests(queries)

	for _, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
		sc := cfg.simConfig(coll, mode, sched, reqs)
		if sc.Collection != coll || sc.Mode != mode || sc.Scheduler != sched || len(sc.Requests) != len(reqs) {
			t.Errorf("%v: arguments not carried: %+v", mode, sc)
		}
		if sc.Model != cfg.Model || sc.CycleCapacity != cfg.CycleCapacity {
			t.Errorf("%v: model/capacity = %+v/%d", mode, sc.Model, sc.CycleCapacity)
		}
		if sc.Limits != cfg.Limits || !sc.Compress {
			t.Errorf("%v: limits/compress dropped: %+v", mode, sc)
		}
		wantK, wantEnc := 0, core.EncodingNode
		if mode == broadcast.TwoTierMode {
			wantK, wantEnc = cfg.Channels, cfg.IndexEncoding
		}
		if sc.Channels != wantK || sc.IndexEncoding != wantEnc {
			t.Errorf("%v: Channels/IndexEncoding = %d/%v, want %d/%v", mode, sc.Channels, sc.IndexEncoding, wantK, wantEnc)
		}
		// What the harness never sets stays at the simulator's default.
		if sc.WholeTierRead || sc.LossProb != 0 || sc.LossSeed != 0 {
			t.Errorf("%v: swept fields preset: %+v", mode, sc)
		}
	}
}

// The layout flags reach every experiment that simulates, not only the
// figures: K = 4 must change ext-loss's two-tier access column and leave its
// one-tier column alone.
func TestLayoutReachesExtensions(t *testing.T) {
	base := small()
	base.NQ = 20
	k4 := base
	k4.Channels = 4
	one, err := ChannelLoss(base, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	four, err := ChannelLoss(k4, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if one.Rows[0][4] != four.Rows[0][4] {
		t.Errorf("one-tier access moved with Channels: %s vs %s", one.Rows[0][4], four.Rows[0][4])
	}
	if one.Rows[0][5] == four.Rows[0][5] {
		t.Errorf("two-tier access ignored Channels = 4: %s both times", one.Rows[0][5])
	}
}
