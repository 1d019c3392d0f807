package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro"
	"repro/internal/core"
)

// saveAndLoad runs the command with args over 10 generated documents and
// reads the snapshot it writes back through LoadIndex. It checks the tier
// and that the index is node, attachment and root identical to one built in
// memory from the same documents and pruned to pending.
func saveAndLoad(t *testing.T, wantTier core.Tier, pending []string, args ...string) *repro.Index {
	t.Helper()
	out := filepath.Join(t.TempDir(), "index.xbc")
	if err := run(append([]string{"-docs", "10", "-out", out}, args...)); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	got, tier, err := repro.LoadIndex(f)
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	if tier != wantTier {
		t.Errorf("tier = %v, want %v", tier, wantTier)
	}
	coll, err := repro.GenerateDocuments(repro.NITFSchema, 10, 1)
	if err != nil {
		t.Fatalf("GenerateDocuments: %v", err)
	}
	want, err := repro.BuildIndex(coll)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if pending != nil {
		var qs []repro.Query
		for _, p := range pending {
			qs = append(qs, repro.MustParseQuery(p))
		}
		if want, _, err = want.Prune(qs); err != nil {
			t.Fatalf("Prune: %v", err)
		}
	}
	if !slices.Equal(got.Roots, want.Roots) || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("roots %v over %d nodes, want %v over %d", got.Roots, len(got.Nodes), want.Roots, len(want.Nodes))
	}
	for i, n := range want.Nodes {
		g := got.Nodes[i]
		if g.Label != n.Label || g.Parent != n.Parent || !slices.Equal(g.Children, n.Children) || !slices.Equal(g.Docs, n.Docs) {
			t.Errorf("node %d: got %+v, want %+v", i, g, n)
		}
	}
	return got
}

func TestBuildAndSaveCI(t *testing.T) {
	if ix := saveAndLoad(t, repro.FirstTier, nil); ix.NumNodes() == 0 {
		t.Error("saved index empty")
	}
	saveAndLoad(t, repro.OneTier, nil, "-tier", "one")
}

func TestBuildPrunedOneTier(t *testing.T) {
	pending := []string{"/nitf/head/title"}
	ix := saveAndLoad(t, repro.OneTier, pending, "-queries", pending[0], "-tier", "one")
	// A PCI pruned to one exact query is a single root-to-leaf path.
	if got := ix.NumNodes(); got != 3 {
		t.Errorf("PCI nodes = %d, want 3 (/nitf/head/title)", got)
	}
	saveAndLoad(t, repro.FirstTier, pending, "-queries", pending[0], "-tier", "first")
}

func TestErrors(t *testing.T) {
	tests := [][]string{
		{"-schema", "bogus"},
		{"-data", "/does/not/exist"},
		{"-queries", "not a path", "-docs", "5"},
		{"-tier", "third", "-docs", "5"},
		{"-out", "/no/such/dir/x.xbc", "-docs", "5"},
		{"-bogus"},
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}
