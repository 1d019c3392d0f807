package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
)

func makeCapture(t *testing.T) string {
	t.Helper()
	coll, err := repro.GenerateDocuments(repro.NITFSchema, 8, 1)
	if err != nil {
		t.Fatalf("GenerateDocuments: %v", err)
	}
	srv, err := repro.StartBroadcastServer(repro.BroadcastServerConfig{
		Collection:    coll,
		CycleCapacity: 40_000,
		CycleInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartBroadcastServer: %v", err)
	}
	t.Cleanup(srv.Shutdown)
	cl, err := repro.DialBroadcast(srv.UplinkAddr(), srv.BroadcastAddr(), repro.SizeModel{})
	if err != nil {
		t.Fatalf("DialBroadcast: %v", err)
	}
	t.Cleanup(cl.Close)
	// Keep the channel busy for the whole recording: a drained pending set
	// stops the cycle loop and would starve the recorder of cycle heads.
	feederStop := make(chan struct{})
	feederDone := make(chan struct{})
	t.Cleanup(func() { close(feederStop); <-feederDone })
	go func() {
		defer close(feederDone)
		q := repro.MustParseQuery("/nitf/head/title")
		for {
			select {
			case <-feederStop:
				return
			default:
			}
			if err := cl.Submit(q); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	path := filepath.Join(t.TempDir(), "session.xbc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := repro.RecordBroadcast(ctx, srv.BroadcastAddr(), 2, f); err != nil {
		t.Fatalf("RecordBroadcast: %v", err)
	}
	f.Close()
	return path
}

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

func TestInspect(t *testing.T) {
	path := makeCapture(t)
	out, err := capture(t, []string{"-in", path})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "captured cycles") || !strings.Contains(out, "index:") {
		t.Errorf("inspect output malformed:\n%s", out)
	}
}

func TestInspectWithQuery(t *testing.T) {
	path := makeCapture(t)
	out, err := capture(t, []string{"-in", path, "-query", "/nitf/head/title"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "/nitf/head/title ->") {
		t.Errorf("query evaluation missing:\n%s", out)
	}
}

func TestInspectErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -in succeeded")
	}
	if err := run([]string{"-in", "/does/not/exist"}); err == nil {
		t.Error("missing file succeeded")
	}
	path := makeCapture(t)
	if err := run([]string{"-in", path, "-query", "not a path"}); err == nil {
		t.Error("bad query succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.xbc")
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bad}); err == nil {
		t.Error("junk capture succeeded")
	}
}

// An index snapshot, the one-cycle capture bcast-index writes with
// SaveIndex, inspects like any recorded broadcast.
func TestInspectIndexFile(t *testing.T) {
	coll, err := repro.GenerateDocuments(repro.NITFSchema, 6, 2)
	if err != nil {
		t.Fatalf("GenerateDocuments: %v", err)
	}
	ix, err := repro.BuildIndex(coll)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	path := filepath.Join(t.TempDir(), "index.xbc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := repro.SaveIndex(f, ix, repro.FirstTier); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	f.Close()
	out, err := capture(t, []string{"-in", path, "-query", "/nitf"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out, "1 captured cycles") || !strings.Contains(out, "(two-tier): index") ||
		!strings.Contains(out, "/nitf -> [1 2 3 4 5 6]") {
		t.Errorf("index snapshot inspection malformed:\n%s", out)
	}
}

func TestInspectIndexFileErrors(t *testing.T) {
	if err := run([]string{"-index", "index.xbc"}); err == nil {
		t.Error("the retired -index flag was accepted")
	}
	path := filepath.Join(t.TempDir(), "junk.xbc")
	if err := os.WriteFile(path, []byte("not a capture file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path}); err == nil || !strings.Contains(err.Error(), "not a capture file") {
		t.Errorf("a file of another format: got %v, want \"not a capture file\"", err)
	}
}
