package netcast

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/xpath"
)

func TestRecordAndReadCapture(t *testing.T) {
	srv, coll := startServer(t, broadcast.TwoTierMode)
	// Seed a request so the server broadcasts.
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	// Keep the channel busy for the whole recording: a drained pending set
	// stops the cycle loop and would starve the recorder of cycle heads.
	feederStop := make(chan struct{})
	feederDone := make(chan struct{})
	t.Cleanup(func() { close(feederStop); <-feederDone })
	go func() {
		defer close(feederDone)
		q := xpath.MustParse("/nitf")
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

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var buf bytes.Buffer
	n, err := Record(ctx, srv.BroadcastAddr(), 2, &buf)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if n != 2 {
		t.Fatalf("recorded %d cycles, want 2", n)
	}

	records, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadCapture: %v", err)
	}
	if len(records) < 2 {
		t.Fatalf("parsed %d records, want >= 2", len(records))
	}
	for _, rec := range records[:2] {
		if !rec.TwoTier {
			t.Error("record not two-tier")
		}
		ix, err := rec.DecodeIndex(core.DefaultSizeModel())
		if err != nil {
			t.Fatalf("DecodeIndex: %v", err)
		}
		if ix.NumNodes() == 0 {
			t.Error("captured index empty")
		}
		st := ix.Stats()
		if st.Nodes != ix.NumNodes() || st.MaxDepth < 1 {
			t.Errorf("stats inconsistent: %+v", st)
		}
		entries, err := rec.SecondTier(core.DefaultSizeModel())
		if err != nil {
			t.Fatalf("SecondTier: %v", err)
		}
		if len(entries) != len(rec.Docs) {
			t.Errorf("second tier has %d entries for %d docs", len(entries), len(rec.Docs))
		}
		for i := range rec.Docs {
			id := rec.DocID(i)
			if coll.ByID(id) == nil {
				t.Errorf("captured unknown doc %d", id)
			}
		}
	}
}

func TestRecordValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(context.Background(), "127.0.0.1:1", 0, &buf); err == nil {
		t.Error("zero cycles accepted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := Record(ctx, "127.0.0.1:1", 1, &buf); err == nil {
		t.Error("dead address recorded")
	}
}

func TestReadCaptureErrors(t *testing.T) {
	if _, err := ReadCapture(strings.NewReader("")); err == nil {
		t.Error("empty capture parsed")
	}
	if _, err := ReadCapture(strings.NewReader("NOTMAGIC")); err == nil {
		t.Error("bad magic parsed")
	}
	// The v1 format (unchecksummed frames) is retired: its magic is refused
	// like any other unknown header, whatever follows it.
	v1 := "XBCAST1\n" + string([]byte{byte(FrameIndex), 3, 0, 0, 0, 1, 2, 3})
	if _, err := ReadCapture(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "not a capture file") {
		t.Errorf("v1 capture: got %v, want \"not a capture file\"", err)
	}
	// Magic plus a truncated frame: the partial tail is dropped cleanly.
	var buf bytes.Buffer
	buf.WriteString(captureMagic)
	buf.Write([]byte{frameSync0, frameSync1, byte(FrameCycleHead), 200, 0, 0, 0, 1, 2})
	recs, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("truncated capture: %v", err)
	}
	if len(recs) != 0 {
		t.Errorf("truncated capture yielded %d records", len(recs))
	}
	// A corrupt (checksum-failing) frame mid-capture is an error, not a
	// panic and not silent acceptance.
	buf.Reset()
	buf.WriteString(captureMagic)
	if err := writeFrame(&buf, FrameCycleHead, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // corrupt the CRC trailer
	if _, err := ReadCapture(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt capture frame accepted")
	}
}
