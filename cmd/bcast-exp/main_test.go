package main

import (
	"os"
	"strings"
	"testing"
)

// capture runs run() with stdout and stderr (where flag prints usage)
// redirected to a pipe and returns the output.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout, os.Stderr = w, w
	runErr := run(args)
	w.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String(), runErr
}

func TestList(t *testing.T) {
	out, err := capture(t, []string{"-list"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"fig9a", "fig11c", "claims", "baseline-perdoc", "ext-energy"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunSetupWithOverrides(t *testing.T) {
	out, err := capture(t, []string{"-exp", "setup", "-docs", "10", "-nq", "20", "-p", "0.2", "-dq", "4",
		"-capacity", "50000", "-scheduler", "mrf", "-schema", "nitf", "-doc-seed", "3", "-query-seed", "4"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"10", "20", "0.200", "mrf"} {
		if !strings.Contains(out, want) {
			t.Errorf("setup output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSmallExperiment(t *testing.T) {
	out, err := capture(t, []string{"-exp", "fig9a", "-docs", "10", "-nq", "10"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "N_Q") || !strings.Contains(out, "PCI") {
		t.Errorf("fig9a output malformed:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	if _, err := capture(t, nil); err == nil {
		t.Error("no-op invocation succeeded")
	}
	if _, err := capture(t, []string{"-exp", "nope"}); err == nil {
		t.Error("unknown experiment succeeded")
	}
	if _, err := capture(t, []string{"-exp", "setup", "-schema", "bogus"}); err == nil {
		t.Error("bogus schema succeeded")
	}
	if _, err := capture(t, []string{"-bogusflag"}); err == nil {
		t.Error("bogus flag succeeded")
	}
	// The Compress × K rule, in the words bcast-sim and bcast-serve use.
	args := []string{"-exp", "fig11a", "-docs", "10", "-nq", "10", "-compress", "-channels", "4"}
	if _, err := capture(t, args); err == nil || !strings.Contains(err.Error(), "compression requires a single channel, got K=4") {
		t.Errorf("args %v: err = %v, want the single-channel rule", args, err)
	}
	// The simulator admits every request: the admission flags are gone, not
	// ignored.
	for _, args := range [][]string{{"-adaptive"}, {"-max-pending", "9"}} {
		_, err := capture(t, append(args, "-list"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("args %v: err = %v, want unknown-flag error", args, err)
		}
	}
}

func TestFormats(t *testing.T) {
	csvOut, err := capture(t, []string{"-exp", "setup", "-docs", "10", "-format", "csv"})
	if err != nil {
		t.Fatalf("csv: %v", err)
	}
	if !strings.HasPrefix(csvOut, "variable,description,value\n") {
		t.Errorf("csv malformed:\n%s", csvOut)
	}
	jsonOut, err := capture(t, []string{"-exp", "setup", "-docs", "10", "-format", "json"})
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	if !strings.Contains(jsonOut, `"columns"`) {
		t.Errorf("json malformed:\n%s", jsonOut)
	}
	if _, err := capture(t, []string{"-exp", "setup", "-docs", "10", "-format", "yaml"}); err == nil {
		t.Error("unknown format accepted")
	}
}

// -p 0 is the first point of the paper's P sweep, not "unset".
func TestZeroWildcardProbabilitySurvives(t *testing.T) {
	out, err := capture(t, []string{"-exp", "setup", "-docs", "10", "-p", "0"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "0.000") || strings.Contains(out, "0.100") {
		t.Errorf("-p 0 did not reach the setup table:\n%s", out)
	}
}

// The engine benchmark moved to bench/ (go run ./bench); its flags are gone,
// not ignored, and nothing the command prints still advertises them.
func TestRetiredBenchFlagsRejected(t *testing.T) {
	for _, name := range []string{"engine", "out=x", "baseline=x", "tolerance=0.1"} {
		flag := "-bench-" + name
		_, err := capture(t, []string{flag, "-list"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want unknown-flag error", flag, err)
		}
	}
	list, err := capture(t, []string{"-list"})
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	usage, err := capture(t, []string{"-h"})
	if err == nil || !strings.Contains(usage, "-channels") {
		t.Fatalf("-h: err = %v, usage not captured:\n%s", err, usage)
	}
	for name, text := range map[string]string{"-list": list, "usage": usage} {
		if strings.Contains(text, "bench") || strings.Contains(text, "BENCH") {
			t.Errorf("%s output still mentions the retired benchmark:\n%s", name, text)
		}
	}
}
