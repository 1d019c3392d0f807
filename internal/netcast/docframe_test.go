package netcast

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/netcast/transport"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// handDriven is a server whose ticker never fires, with raw subscribers
// attached: the test hands broadcastCycle to the cycle loop itself, so what
// airs in which cycle is decided, not timed.
type handDriven struct {
	srv     *Server
	streams []chan []byte // each subscriber's whole stream, sent at EOF
}

// startHandDriven starts a compressing single-channel server over coll.
func startHandDriven(t *testing.T, coll *xmldoc.Collection, subscribers int) *handDriven {
	t.Helper()
	return handDrive(t, ServerConfig{Collection: coll, Compress: true}, subscribers)
}

// handDrive starts cfg's server and dials subscribers to it, subscriber i to
// channel i mod K.
func handDrive(t *testing.T, cfg ServerConfig, subscribers int) *handDriven {
	t.Helper()
	coll := cfg.Collection
	cfg.CycleCapacity = 3 * coll.TotalSize() / coll.Len()
	cfg.CycleInterval = time.Hour
	// Every cycle of a test fits in the queue: no subscriber is ever
	// dropped for being slow under the race detector.
	cfg.SubscriberQueue = 64
	srv, err := StartServer(cfg)
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	t.Cleanup(srv.Shutdown)
	h := &handDriven{srv: srv}
	addrs := srv.ChannelAddrs()
	for i := 0; i < subscribers; i++ {
		conn, err := net.Dial("tcp", addrs[i%len(addrs)])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		ch := make(chan []byte, 1)
		h.streams = append(h.streams, ch)
		go func() {
			_ = conn.SetReadDeadline(time.Now().Add(60 * time.Second))
			all, _ := io.ReadAll(conn)
			ch <- all
		}()
	}
	waitFor(t, "subscribers to register", func() bool { return srv.Stats().Subscribers == subscribers })
	return h
}

// cycle submits one more request and airs one cycle.
func (h *handDriven) cycle(t *testing.T, query string) {
	t.Helper()
	if _, _, err := h.srv.submit(query); err != nil {
		t.Fatalf("submit %s: %v", query, err)
	}
	onLoop(t, h.srv, h.srv.broadcastCycle)
}

// airedFrame is one envelope read back off a subscriber's stream.
type airedFrame struct {
	t          wire.FrameType
	payload    []byte
	raw        []byte
	compressed bool
}

// ended shuts the server down — flushing every subscriber queue — and
// returns each subscriber's whole stream.
func (h *handDriven) ended(t *testing.T) [][]byte {
	t.Helper()
	h.srv.Shutdown()
	streams := make([][]byte, len(h.streams))
	for i, ch := range h.streams {
		select {
		case streams[i] = <-ch:
		case <-time.After(30 * time.Second):
			t.Fatalf("subscriber %d: stream never ended", i)
		}
	}
	return streams
}

// finish ends the streams of a compressing single-channel server and walks
// them: every stream must be the same bytes, and every envelope must be
// exactly what a fresh encoder makes of its own inner frame, whether it was
// built this cycle or served from the cache.
func (h *handDriven) finish(t *testing.T) []airedFrame {
	t.Helper()
	streams := h.ended(t)
	first := streams[0]
	for i, got := range streams[1:] {
		if !bytes.Equal(got, first) {
			t.Errorf("subscriber %d received a stream that differs from subscriber 0's", i+1)
		}
	}
	br := bufio.NewReader(bytes.NewReader(first))
	if _, err := transport.ReadHello(br); err != nil {
		t.Fatalf("stream does not open with a transport hello: %v", err)
	}
	tr := transport.NewReader(br)
	fresh := transport.NewEncoder(true, 0)
	var frames []airedFrame
	for {
		fr, err := tr.Next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		want, err := fresh.Encode(transport.NoStream, fr.Inner)
		if err != nil {
			t.Fatal(err)
		}
		ft, payload, err := decodeInner(fr.Inner)
		if err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		if !bytes.Equal(fr.Raw, want) {
			t.Errorf("frame %d (type %d): the envelope on air is not the fresh encoding of its inner frame", len(frames), ft)
		}
		frames = append(frames, airedFrame{t: ft, payload: bytes.Clone(payload), raw: bytes.Clone(fr.Raw), compressed: fr.Compressed})
	}
}

// TestDocumentDeflatedOncePerLifetime: a document airs in cycle after cycle
// while requests for it are pending, and the server deflates it the first
// time only. Thirty-odd cycles keep all ten documents airing; the encoder's
// own count of deflated frames must be what the per-cycle frames (heads,
// index, second tier) account for plus one per document — not one per
// document airing.
func TestDocumentDeflatedOncePerLifetime(t *testing.T) {
	coll := testCollection(t)
	h := startHandDriven(t, coll, 1)
	const cycles = 32
	for i := 0; i < cycles; i++ {
		h.cycle(t, "/nitf") // one more request for every document, every cycle
	}
	var stats transport.EncoderStats
	onLoop(t, h.srv, func() error { stats = h.srv.eng.TransportStats(); return nil })
	frames := h.finish(t)

	var perCycleDeflated, docAirings int64
	docs := map[xmldoc.DocID]bool{}
	for _, f := range frames {
		switch {
		case f.t != wire.FrameDoc:
			if f.compressed {
				perCycleDeflated++
			}
		case !f.compressed:
			t.Fatalf("document frame of %d bytes shipped raw; the test needs compressible documents", len(f.payload))
		default:
			docAirings++
			docs[xmldoc.DocID(binary.LittleEndian.Uint16(f.payload))] = true
		}
	}
	if len(docs) != coll.Len() || docAirings < 3*int64(coll.Len()) {
		t.Fatalf("%d documents aired %d times in %d cycles; want all %d, several times each", len(docs), docAirings, cycles, coll.Len())
	}
	if want := perCycleDeflated + int64(len(docs)); stats.Compressed != want {
		t.Errorf("encoder deflated %d frames: %d per-cycle frames and %d document airings of %d documents; want %d (each document once)",
			stats.Compressed, perCycleDeflated, docAirings, len(docs), want)
	}
}

// TestDocEnvelopeSharedAcrossCycles is TestFanOutFramesOnce's sibling for the
// engine's document cache: one document airing in three consecutive cycles
// reaches all eight subscribers as the identical envelope each time, and that
// envelope is the fresh encoding of the document's frame.
func TestDocEnvelopeSharedAcrossCycles(t *testing.T) {
	coll := testCollection(t)
	h := startHandDriven(t, coll, 8)
	lone := xmldoc.NewDocument(5000, xmldoc.El("nitf",
		xmldoc.El("head", xmldoc.TextEl("breaking", strings.Repeat("stop the presses ", 40)))))
	if err := h.srv.AddDocument(lone); err != nil {
		t.Fatalf("AddDocument: %v", err)
	}
	for i := 0; i < 3; i++ {
		h.cycle(t, "/nitf/head/breaking")
	}
	frames := h.finish(t)

	inner, err := wire.AppendFrame(nil, wire.FrameDoc, lone.AppendMarshal(binary.LittleEndian.AppendUint16(nil, uint16(lone.ID))))
	if err != nil {
		t.Fatal(err)
	}
	want, err := transport.NewEncoder(true, 0).Encode(transport.NoStream, inner)
	if err != nil {
		t.Fatal(err)
	}
	airings := 0
	for _, f := range frames {
		if f.t != wire.FrameDoc {
			continue
		}
		airings++
		if !bytes.Equal(f.raw, want) {
			t.Errorf("airing %d: envelope differs from the fresh encoding of the document's frame", airings)
		}
	}
	if airings != 3 {
		t.Errorf("the document aired %d times, want once in each of 3 cycles", airings)
	}
}

// TestCompressedRetrieveUnderEviction: a payload cache bounded to two
// documents evicts payloads, and their envelopes with them, in every cycle
// of three; whatever is rebuilt must still be the right bytes.
func TestCompressedRetrieveUnderEviction(t *testing.T) {
	coll := testCollection(t)
	srv, err := StartServer(ServerConfig{
		Collection:    coll,
		CycleCapacity: 3 * coll.TotalSize() / coll.Len(),
		CycleInterval: 5 * time.Millisecond,
		Compress:      true,
		Limits:        engine.Limits{MaxPayloadCacheBytes: 2 * coll.TotalSize() / coll.Len()},
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	q := xpath.MustParse("/nitf")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Twice over, so documents air again after their entries were evicted.
	for round := 0; round < 2; round++ {
		if err := cl.Submit(q); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		docs, _, err := cl.Retrieve(ctx, q)
		if err != nil {
			t.Fatalf("Retrieve: %v", err)
		}
		checkRetrieved(t, coll, docs, q.MatchingDocs(coll))
	}
	if st := srv.Stats(); st.Engine.PayloadEvictions == 0 {
		t.Error("no payload evictions under a two-document cache bound")
	}
}

// TestOversizedDocumentRefused: a document whose frame payload (two ID bytes
// and the text) exceeds the frame limit cannot be sent, so it must not get
// in — it used to be scheduled, listed in the second tier, silently skipped
// at fan-out and then retired as delivered. It is refused at both doors with
// nothing changed; one just under the limit is accepted.
func TestOversizedDocumentRefused(t *testing.T) {
	// One element of text: the size is the text's plus the tags'.
	tags := xmldoc.NewDocument(1, xmldoc.TextEl("a", "x")).Size() - 1
	sized := func(id xmldoc.DocID, payload int) *xmldoc.Document {
		d := xmldoc.NewDocument(id, xmldoc.TextEl("a", strings.Repeat("x", payload-2-tags)))
		if got := 2 + d.Size(); got != payload {
			t.Fatalf("built a document with a %d-byte frame payload, want %d", got, payload)
		}
		return d
	}
	tooBig := sized(9000, wire.MaxFramePayload+1)
	coll := testCollection(t)

	withIt, err := xmldoc.NewCollection(append(coll.Docs()[:coll.Len():coll.Len()], tooBig))
	if err != nil {
		t.Fatal(err)
	}
	if srv, err := StartServer(ServerConfig{Collection: withIt, CycleCapacity: 50_000}); err == nil {
		srv.Shutdown()
		t.Error("StartServer accepted a collection holding a document too large to frame")
	} else if !strings.Contains(err.Error(), "document 9000") || !strings.Contains(err.Error(), "16777216") {
		t.Errorf("StartServer error %q does not name the document and the limit", err)
	}

	dir := t.TempDir()
	srv, err := StartServer(ServerConfig{Collection: coll, CycleCapacity: 50_000, StateDir: dir})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	defer srv.Shutdown()
	// What a recovery at this instant would rebuild.
	journaled := func() *journal.State {
		st, err := journal.ReadState(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fingerprint := func() (fp uint64) {
		onLoop(t, srv, func() error { fp = srv.eng.CollectionFingerprint(); return nil })
		return fp
	}
	numDocs, fp, before := srv.NumDocs(), fingerprint(), journaled()
	err = srv.AddDocument(tooBig)
	if err == nil || !strings.Contains(err.Error(), "document 9000") || !strings.Contains(err.Error(), "16777216") {
		t.Errorf("AddDocument of an oversized document = %v, want a refusal naming the document and the limit", err)
	}
	if srv.NumDocs() != numDocs || fingerprint() != fp {
		t.Error("a refused document changed the collection")
	}
	if !reflect.DeepEqual(journaled(), before) {
		t.Error("a refused document reached the journal")
	}
	if err := srv.AddDocument(sized(9001, wire.MaxFramePayload-3)); err != nil {
		t.Errorf("AddDocument of a document 3 bytes under the limit: %v", err)
	}
	if srv.NumDocs() != numDocs+1 || reflect.DeepEqual(journaled(), before) {
		t.Error("an accepted document did not reach the collection and the journal")
	}
}
