package netcast

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// recordFresh subscribes a recorder to srv before anything is pending and
// then submits q as the only request, so the capture holds the first cycles
// of a pending set fixed by q alone.
func recordFresh(t *testing.T, srv *Server, q xpath.Path, cycles int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		n, err := Record(ctx, srv.BroadcastAddr(), cycles, &buf)
		if err == nil && n != cycles {
			err = fmt.Errorf("recorded %d cycles, want %d", n, cycles)
		}
		done <- err
	}()
	for srv.Stats().Subscribers < 1 {
		select {
		case <-ctx.Done():
			t.Fatal("timed out waiting for the recorder's subscription")
		case <-time.After(2 * time.Millisecond):
		}
	}
	cl, err := Dial(srv.UplinkAddr(), srv.BroadcastAddr(), core.SizeModel{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Submit(q); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Record: %v", err)
	}
	return buf.Bytes()
}

// A bare and a compressed server airing the same collection for the same
// request capture the same cycles: compression changes the envelopes, never
// the segments inside them.
func TestRecordAndReadCapture(t *testing.T) {
	// "/nitf" matches all ten documents, about three to a cycle: the query
	// stays pending past the two recorded cycles and the boundary after them.
	q := xpath.MustParse("/nitf")
	bareSrv, coll := startServer(t, broadcast.TwoTierMode)
	compSrv, _ := startCompressedServer(t, broadcast.TwoTierMode)
	captures := map[string][]byte{
		"bare":       recordFresh(t, bareSrv, q, 2),
		"compressed": recordFresh(t, compSrv, q, 2),
	}
	recs := map[string][]CycleRecord{}
	for name, raw := range captures {
		records, err := ReadCapture(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s ReadCapture: %v", name, err)
		}
		if len(records) != 2 {
			t.Fatalf("%s: parsed %d records, want 2", name, len(records))
		}
		recs[name] = records
	}
	for _, rec := range recs["bare"] {
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
	for i, b := range recs["bare"] {
		c := recs["compressed"][i]
		if b.Number != c.Number || !bytes.Equal(b.IndexSeg, c.IndexSeg) || !bytes.Equal(b.SecondTierSeg, c.SecondTierSeg) {
			t.Errorf("cycle %d: bare and compressed captures differ in head or segments", i)
		}
		if len(b.Docs) != len(c.Docs) {
			t.Fatalf("cycle %d: %d bare docs, %d compressed", i, len(b.Docs), len(c.Docs))
		}
		for j := range b.Docs {
			if !bytes.Equal(b.Docs[j], c.Docs[j]) {
				t.Errorf("cycle %d doc %d: bare and compressed payloads differ", i, j)
			}
		}
	}
}

// paperCollection is the paper's five-document running example.
func paperCollection() *xmldoc.Collection {
	c, err := xmldoc.NewCollection([]*xmldoc.Document{
		xmldoc.NewDocument(1, xmldoc.El("a", xmldoc.El("b", xmldoc.El("a"), xmldoc.El("c")))),
		xmldoc.NewDocument(2, xmldoc.El("a", xmldoc.El("b", xmldoc.El("a"), xmldoc.El("c")), xmldoc.El("c", xmldoc.El("b")))),
		xmldoc.NewDocument(3, xmldoc.El("a", xmldoc.El("b"), xmldoc.El("c"))),
		xmldoc.NewDocument(4, xmldoc.El("a", xmldoc.El("c", xmldoc.El("a")))),
		xmldoc.NewDocument(5, xmldoc.El("a", xmldoc.El("b"), xmldoc.El("c", xmldoc.El("a")))),
	})
	if err != nil {
		panic(err)
	}
	return c
}

// paperIndexes returns the running example's CI and a PCI of it pruned to
// two queries.
func paperIndexes(t *testing.T) (ci, pci *core.Index) {
	t.Helper()
	ci, err := core.BuildCI(paperCollection(), core.DefaultSizeModel())
	if err != nil {
		t.Fatalf("BuildCI: %v", err)
	}
	if pci, _, err = ci.Prune([]xpath.Path{xpath.MustParse("/a/b/c"), xpath.MustParse("/a/c/a")}); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	return ci, pci
}

// An index snapshot is a one-cycle capture: it reads back through
// ReadCapture and DecodeIndex node, child, attachment and root identical,
// with the tier it was written in named by the cycle head.
func TestIndexSnapshotRoundTrip(t *testing.T) {
	ci, pci := paperIndexes(t)
	for name, ix := range map[string]*core.Index{"ci": ci, "pci": pci} {
		for _, tier := range []core.Tier{core.OneTier, core.FirstTier} {
			t.Run(name+"/"+tier.String(), func(t *testing.T) {
				var buf bytes.Buffer
				if err := WriteIndexSnapshot(&buf, ix, tier); err != nil {
					t.Fatalf("WriteIndexSnapshot: %v", err)
				}
				recs, err := ReadCapture(&buf)
				if err != nil {
					t.Fatalf("ReadCapture: %v", err)
				}
				if len(recs) != 1 {
					t.Fatalf("snapshot holds %d cycles, want 1", len(recs))
				}
				if recs[0].TwoTier != (tier == core.FirstTier) || recs[0].Succinct {
					t.Errorf("head names two-tier=%v succinct=%v for %v", recs[0].TwoTier, recs[0].Succinct, tier)
				}
				back, err := recs[0].DecodeIndex(core.DefaultSizeModel())
				if err != nil {
					t.Fatalf("DecodeIndex: %v", err)
				}
				if !slices.Equal(back.Roots, ix.Roots) || len(back.Nodes) != len(ix.Nodes) {
					t.Fatalf("roots %v over %d nodes, want %v over %d", back.Roots, len(back.Nodes), ix.Roots, len(ix.Nodes))
				}
				for i, n := range ix.Nodes {
					b := back.Nodes[i]
					if b.Label != n.Label || b.Parent != n.Parent || !slices.Equal(b.Children, n.Children) || !slices.Equal(b.Docs, n.Docs) {
						t.Errorf("node %d: got %+v, want %+v", i, b, n)
					}
				}
			})
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
	// The retired formats are refused like any other unknown header,
	// whatever follows it: v1 (unchecksummed frames), v2 (re-encoded bare
	// frames) and v3 (transport envelopes without their hello).
	frame, err := wire.AppendFrame(nil, wire.FrameIndex, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"XBCAST1\n", "XBCAST2\n", "XBCAST3\n"} {
		old := magic + string(frame)
		if _, err := ReadCapture(strings.NewReader(old)); err == nil || !strings.Contains(err.Error(), "not a capture file") {
			t.Errorf("%q capture: got %v, want \"not a capture file\"", magic, err)
		}
	}
	// Magic plus a truncated frame: the partial tail is dropped cleanly.
	var buf bytes.Buffer
	buf.WriteString(captureMagic)
	buf.Write([]byte{wire.FrameSync0, wire.FrameSync1, byte(wire.FrameCycleHead), 200, 0, 0, 0, 1, 2})
	recs, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("truncated capture: %v", err)
	}
	if len(recs) != 0 {
		t.Errorf("truncated capture yielded %d records", len(recs))
	}
	// A corrupt (checksum-failing) frame mid-capture is an error, not a
	// panic and not silent acceptance.
	raw, err := wire.AppendFrame([]byte(captureMagic), wire.FrameCycleHead, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // corrupt the CRC trailer
	if _, err := ReadCapture(bytes.NewReader(raw)); err == nil {
		t.Error("corrupt capture frame accepted")
	}
}
