package main

import (
	"os"
	"strings"
	"testing"
)

func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
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

func TestRunBothModes(t *testing.T) {
	for _, mode := range []string{"one-tier", "two-tier"} {
		t.Run(mode, func(t *testing.T) {
			out, err := capture(t, []string{"-mode", mode, "-docs", "10", "-nq", "8", "-capacity", "40000"})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, want := range []string{"cycles broadcast", "mean index tuning", "mean access time"} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestVerbose(t *testing.T) {
	out, err := capture(t, []string{"-docs", "8", "-nq", "5", "-capacity", "40000", "-v"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "cycle  start") || !strings.Contains(out, "client  arrival") {
		t.Errorf("verbose output missing detail:\n%s", out)
	}
}

func TestSchedulers(t *testing.T) {
	for _, s := range []string{"fcfs", "mrf", "rxw"} {
		if _, err := capture(t, []string{"-docs", "8", "-nq", "5", "-capacity", "40000", "-scheduler", s}); err != nil {
			t.Errorf("scheduler %s: %v", s, err)
		}
	}
}

func TestErrors(t *testing.T) {
	const undefined = "flag provided but not defined"
	tests := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-mode", "three-tier"}, "unknown mode"},
		{[]string{"-schema", "bogus"}, ""},
		{[]string{"-scheduler", "bogus", "-docs", "5", "-nq", "3"}, ""},
		{[]string{"-bogusflag"}, undefined},
		// The simulator admits every request: the admission flags are gone,
		// not ignored.
		{[]string{"-adaptive"}, undefined},
		{[]string{"-max-pending", "9"}, undefined},
		// -restart-check runs one layout; it refuses the flags it would ignore.
		{[]string{"-restart-check", "-mode", "one-tier"}, "-mode one-tier"},
		{[]string{"-restart-check", "-index-enc", "succinct"}, "-index-enc succinct"},
		{[]string{"-restart-check", "-compress"}, "-compress true"},
		// The Compress × K rule, in the words bcast-serve and bcast-exp use.
		{[]string{"-compress", "-channels", "4", "-docs", "5", "-nq", "3"}, "compression requires a single channel, got K=4"},
	}
	for _, tc := range tests {
		if _, err := capture(t, tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: err = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestDataDirectory(t *testing.T) {
	dir := t.TempDir()
	for i, src := range []string{"<a><b/><b/></a>", "<a><c/></a>", "<a><b><c/></b></a>"} {
		if err := os.WriteFile(dir+"/"+string(rune('a'+i))+".xml", []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := capture(t, []string{"-data", dir, "-nq", "3", "-capacity", "1000"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "docs=3") {
		t.Errorf("data dir not loaded:\n%s", out)
	}
}

func TestDataDirectoryMissing(t *testing.T) {
	if _, err := capture(t, []string{"-data", "/does/not/exist"}); err == nil {
		t.Error("missing data dir succeeded")
	}
}
