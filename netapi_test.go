package repro_test

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestNetworkFacadeEndToEnd drives the public networking surface: start a
// server, submit over the uplink, retrieve over the broadcast, record a
// capture and decode it — all through the repro package.
func TestNetworkFacadeEndToEnd(t *testing.T) {
	coll, err := repro.GenerateDocuments(repro.NITFSchema, 8, 3)
	if err != nil {
		t.Fatalf("GenerateDocuments: %v", err)
	}
	srv, err := repro.StartBroadcastServer(repro.BroadcastServerConfig{
		Collection:    coll,
		Mode:          repro.TwoTierMode,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartBroadcastServer: %v", err)
	}
	defer srv.Shutdown()

	cl, err := repro.DialBroadcast(srv.UplinkAddr(), srv.BroadcastAddr(), repro.SizeModel{})
	if err != nil {
		t.Fatalf("DialBroadcast: %v", err)
	}
	defer cl.Close()
	q := repro.MustParseQuery("/nitf/head/title")
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	docs, stats, err := cl.Retrieve(ctx, q)
	if err != nil {
		t.Fatalf("Retrieve: %v", err)
	}
	want := q.MatchingDocs(coll)
	if len(docs) != len(want) {
		t.Fatalf("retrieved %d docs, want %d", len(docs), len(want))
	}
	if stats.TuningBytes <= 0 {
		t.Error("no tuning accounted")
	}

	// Keep traffic flowing for the recorder.
	feederStop := make(chan struct{})
	feederDone := make(chan struct{})
	defer func() { close(feederStop); <-feederDone }()
	go func() {
		defer close(feederDone)
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
	var buf bytes.Buffer
	if _, err := repro.RecordBroadcast(ctx, srv.BroadcastAddr(), 2, &buf); err != nil {
		t.Fatalf("RecordBroadcast: %v", err)
	}
	recs, err := repro.ReadBroadcastCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBroadcastCapture: %v", err)
	}
	if len(recs) < 2 {
		t.Fatalf("captured %d cycles", len(recs))
	}
	ix, err := recs[0].DecodeIndex(repro.DefaultSizeModel())
	if err != nil {
		t.Fatalf("DecodeIndex: %v", err)
	}
	if got := ix.Lookup(q).Docs; len(got) != len(want) {
		t.Errorf("captured index answers %v, want %d docs", got, len(want))
	}
}

// TestSaveLoadIndexFacade exercises the index persistence surface.
func TestSaveLoadIndexFacade(t *testing.T) {
	coll, err := repro.GenerateDocuments(repro.NASASchema, 6, 4)
	if err != nil {
		t.Fatalf("GenerateDocuments: %v", err)
	}
	ix, err := repro.BuildIndex(coll)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	var buf bytes.Buffer
	if err := repro.SaveIndex(&buf, ix, repro.FirstTier); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	back, tier, err := repro.LoadIndex(&buf)
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	if tier != repro.FirstTier || back.NumNodes() != ix.NumNodes() {
		t.Errorf("round trip: tier %v, %d nodes (want %d)", tier, back.NumNodes(), ix.NumNodes())
	}
	q := repro.MustParseQuery("/dataset/title")
	if len(back.Lookup(q).Docs) != len(ix.Lookup(q).Docs) {
		t.Error("loaded index answers differently")
	}
}

// TestLoadIndexErrors: LoadIndex reads exactly one checksummed cycle, and
// SaveIndex refuses a tier or an index a capture cannot describe.
func TestLoadIndexErrors(t *testing.T) {
	coll, err := repro.GenerateDocuments(repro.NITFSchema, 6, 2)
	if err != nil {
		t.Fatalf("GenerateDocuments: %v", err)
	}
	ix, err := repro.BuildIndex(coll)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	var buf bytes.Buffer
	if err := repro.SaveIndex(&buf, ix, repro.OneTier); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	good := buf.Bytes()
	const magic = "XBCAST4\n"
	flipped := bytes.Clone(good)
	flipped[len(flipped)-8] ^= 0x01 // inside the index frame's payload
	for _, tt := range []struct {
		name, give, want string
	}{
		{"empty", "", "capture header"},
		{"bad magic", "XBCAST3\nretired format", "not a capture file"},
		{"zero cycles", magic, "holds 0"},
		{"truncated stream", string(good[:len(good)-5]), "holds 0"}, // the partial cycle is dropped
		{"two cycles", string(good) + string(good[len(magic):]), "holds 2"},
		{"flipped byte", string(flipped), "checksum"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := repro.LoadIndex(strings.NewReader(tt.give))
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("LoadIndex: got %v, want an error containing %q", err, tt.want)
			}
		})
	}
	t.Run("invalid tier", func(t *testing.T) {
		if err := repro.SaveIndex(io.Discard, ix, repro.OneTier+repro.FirstTier); err == nil { // neither tier
			t.Error("SaveIndex wrote an index under an invalid tier")
		}
	})
	t.Run("non-default model", func(t *testing.T) {
		m := repro.DefaultSizeModel()
		m.PointerBytes = 8
		wide, err := repro.BuildIndexWithModel(coll, m)
		if err != nil {
			t.Fatalf("BuildIndexWithModel: %v", err)
		}
		if err := repro.SaveIndex(io.Discard, wide, repro.FirstTier); err == nil {
			t.Error("SaveIndex wrote an index under a non-default size model")
		}
	})
}
