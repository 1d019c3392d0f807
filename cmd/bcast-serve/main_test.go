package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestServeSelfDriveForDuration(t *testing.T) {
	if err := run([]string{"-docs", "8", "-selfdrive", "-interval", "5ms", "-for", "300ms"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestServeWithDataDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.xml"), []byte("<a><b/></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", dir, "-for", "100ms"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestServeErrors(t *testing.T) {
	const undefined = "flag provided but not defined"
	tests := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-mode", "three-tier"}, "unknown mode"},
		{[]string{"-schema", "bogus"}, ""},
		{[]string{"-data", "/does/not/exist"}, ""},
		{[]string{"-bogus"}, undefined},
		{[]string{"-uplink", "256.0.0.1:99999"}, ""},
		// The churn thresholds are constants: their flags are gone, not ignored.
		{[]string{"-prune-churn", "0.5"}, undefined},
		{[]string{"-sched-churn", "-1"}, undefined},
		// Admission is static: the controller's flag is gone, not ignored.
		{[]string{"-adaptive"}, undefined},
		// The Compress × K rule, in the words bcast-sim and bcast-exp use.
		{[]string{"-docs", "5", "-compress", "-channels", "4"}, "compression requires a single channel, got K=4"},
	}
	for _, tc := range tests {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: err = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
