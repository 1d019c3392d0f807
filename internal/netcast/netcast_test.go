package netcast

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func testCollection(t *testing.T) *xmldoc.Collection {
	t.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 10, Seed: 77})
	if err != nil {
		t.Fatalf("Documents: %v", err)
	}
	return c
}

func startServer(t *testing.T, mode broadcast.Mode) (*Server, *xmldoc.Collection) {
	t.Helper()
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		Mode:          mode,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	t.Cleanup(srv.Shutdown)
	return srv, coll
}

// checkRetrieved fails the test unless docs are the documents want names, in
// that order, each serialising byte for byte as the collection's own. IDs
// alone would not do: the client parses every document out of one reused
// frame buffer, and a tree still pointing into it would keep its ID and lose
// its text to the next frame.
func checkRetrieved(t *testing.T, coll *xmldoc.Collection, docs []*xmldoc.Document, want []xmldoc.DocID) {
	t.Helper()
	if len(docs) != len(want) {
		t.Fatalf("retrieved %d docs, want %d", len(docs), len(want))
	}
	for i, d := range docs {
		if d.ID != want[i] {
			t.Fatalf("doc %d: ID %d, want %d", i, d.ID, want[i])
		}
		if !bytes.Equal(d.Marshal(), coll.ByID(d.ID).Marshal()) {
			t.Errorf("doc %d bytes differ from the source document", d.ID)
		}
	}
}

func TestEndToEndRetrieve(t *testing.T) {
	for _, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, coll := startServer(t, mode)
			cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer cl.Close()

			q := xpath.MustParse("/nitf/body/body.content/block")
			want := q.MatchingDocs(coll)
			if len(want) == 0 {
				t.Fatal("test query matches nothing")
			}
			if err := cl.Submit(q); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			docs, stats, err := cl.Retrieve(ctx, q)
			if err != nil {
				t.Fatalf("Retrieve: %v", err)
			}
			checkRetrieved(t, coll, docs, want)
			if stats.TuningBytes <= 0 || stats.Cycles == 0 {
				t.Errorf("stats = %+v", stats)
			}
		})
	}
}

func TestTwoClientsShareBroadcast(t *testing.T) {
	srv, coll := startServer(t, broadcast.TwoTierMode)
	q1 := xpath.MustParse("/nitf/head/title")
	q2 := xpath.MustParse("/nitf//p")

	type outcome struct {
		docs []*xmldoc.Document
		err  error
		doze int64
	}
	runClient := func(q xpath.Path, ch chan<- outcome) {
		cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		defer cl.Close()
		if err := cl.Submit(q); err != nil {
			ch <- outcome{err: err}
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		docs, stats, err := cl.Retrieve(ctx, q)
		if err != nil {
			ch <- outcome{err: err}
			return
		}
		ch <- outcome{docs: docs, doze: stats.DozeBytes}
	}
	ch1 := make(chan outcome, 1)
	ch2 := make(chan outcome, 1)
	go runClient(q1, ch1)
	go runClient(q2, ch2)
	o1, o2 := <-ch1, <-ch2
	if o1.err != nil || o2.err != nil {
		t.Fatalf("client errors: %v / %v", o1.err, o2.err)
	}
	checkRetrieved(t, coll, o1.docs, q1.MatchingDocs(coll))
	checkRetrieved(t, coll, o2.docs, q2.MatchingDocs(coll))
}

func TestSubmitRejectsBadQueries(t *testing.T) {
	srv, _ := startServer(t, broadcast.TwoTierMode)
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Submit(xpath.MustParse("/definitely/absent")); err == nil {
		t.Error("empty-result query accepted")
	}
	var junk xpath.Path
	junk.Steps = []xpath.Step{{Axis: xpath.Child, Label: "has space"}}
	if err := cl.Submit(junk); err == nil {
		t.Error("malformed query accepted")
	}
	// The connection still works after rejections.
	if err := cl.Submit(xpath.MustParse("/nitf")); err != nil {
		t.Errorf("valid submit after rejections: %v", err)
	}
}

func TestServerShutdownIdempotentAndClean(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{Collection: coll, CycleCapacity: 50_000})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	srv.Shutdown()
	srv.Shutdown() // must not panic or hang
	if _, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{}); err == nil {
		t.Error("dial succeeded after shutdown")
	}
}

func TestStartServerValidation(t *testing.T) {
	coll := testCollection(t)
	if _, err := StartServer(ServerConfig{CycleCapacity: 1}); err == nil {
		t.Error("nil collection accepted")
	}
	if _, err := StartServer(ServerConfig{Collection: coll}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestServerProgress(t *testing.T) {
	srv, _ := startServer(t, broadcast.TwoTierMode)
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Submit(xpath.MustParse("/nitf")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for srv.Pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never drained the request")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Cycles() == 0 {
		t.Error("no cycles broadcast")
	}
}

// TestFrameRoundTrip carries a cycle head through the frame layer: framed,
// read back and decoded, it is the head that was sent.
func TestFrameRoundTrip(t *testing.T) {
	h := &wire.CycleHead{Number: 42, TwoTier: true, NumDocs: 7, Catalog: []byte{1, 2, 3}, RootLabels: []string{"nitf", "x"}}
	data, err := h.Append(nil)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	stream, err := wire.AppendFrame(nil, wire.FrameCycleHead, data)
	if err != nil {
		t.Fatalf("wire.AppendFrame: %v", err)
	}
	ft, payload, err := wire.ReadFrame(bytes.NewReader(stream))
	if err != nil || ft != wire.FrameCycleHead {
		t.Fatalf("wire.ReadFrame = type %d, %v", ft, err)
	}
	back, err := wire.DecodeCycleHead(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(back, h) {
		t.Errorf("round trip = %+v, want %+v", back, h)
	}
}

// TestEncodeRejectRoundsUp: the wire carries whole milliseconds, and a
// positive retry-after hint rounds up so it never reads as "retry now".
func TestEncodeRejectRoundsUp(t *testing.T) {
	for _, tc := range []struct{ hint, want time.Duration }{
		{500 * time.Microsecond, time.Millisecond},
		{20*time.Millisecond + 617*time.Microsecond, 21 * time.Millisecond},
		{300 * time.Millisecond, 300 * time.Millisecond},
		{0, 0},
	} {
		got, reason, err := decodeReject(encodeReject(tc.hint, "busy"))
		if err != nil || got != tc.want || reason != "busy" {
			t.Errorf("hint %s: decoded %s/%q/%v, want %s/\"busy\"", tc.hint, got, reason, err, tc.want)
		}
	}
}

// TestFrameSourceReusesBuffer: a downlink source reads every frame into one
// buffer, so a payload is overwritten by the next read — and a decoded cycle
// head, which outlives its frame, must hold its own copy of the catalog.
func TestFrameSourceReusesBuffer(t *testing.T) {
	h := &wire.CycleHead{Number: 42, TwoTier: true, Catalog: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	headBytes, err := h.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	var stream []byte
	for _, f := range []struct {
		t wire.FrameType
		p []byte
	}{{wire.FrameCycleHead, headBytes}, {wire.FrameDoc, bytes.Repeat([]byte{0xEE}, len(headBytes))}} {
		if stream, err = wire.AppendFrame(stream, f.t, f.p); err != nil {
			t.Fatal(err)
		}
	}
	src := newFrameSource(bytes.NewReader(stream))
	first, err := src.next()
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.DecodeCycleHead(first.payload)
	if err != nil {
		t.Fatal(err)
	}
	second, err := src.next()
	if err != nil {
		t.Fatal(err)
	}
	if &first.payload[0] != &second.payload[0] {
		t.Error("second frame was read into a new buffer")
	}
	if !bytes.Equal(back.Catalog, h.Catalog) {
		t.Errorf("cycle head catalog = %v after the next read, want %v", back.Catalog, h.Catalog)
	}
}

// TestLargeCollectionRetrieve: 200 documents pass the node header's 127-count
// flag capacity — every document sits under /nitf/head/title — and the server
// airs the escaped first tier, over the node stream in either tiering, that a
// client reads back to the exact answer.
func TestLargeCollectionRetrieve(t *testing.T) {
	coll, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 200, Seed: 3, TextScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	q := xpath.MustParse("/nitf/head/title")
	want := q.MatchingDocs(coll)
	if len(want) < 128 {
		t.Fatalf("the query matches %d documents, not past the flag capacity", len(want))
	}
	for _, mode := range []broadcast.Mode{broadcast.OneTierMode, broadcast.TwoTierMode} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, err := StartServer(ServerConfig{Collection: coll, Mode: mode, CycleCapacity: coll.TotalSize() / 2, CycleInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown()
			cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Submit(q); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			docs, _, err := cl.Retrieve(ctx, q)
			if err != nil {
				t.Fatalf("Retrieve: %v", err)
			}
			checkRetrieved(t, coll, docs, want)
		})
	}
}
