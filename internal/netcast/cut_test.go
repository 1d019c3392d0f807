package netcast

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/journal"
	"repro/internal/wire"
	"repro/internal/xpath"
)

// TestCutStreamsEndCleanOnlyAtFrameBoundaries cuts a capture, a journal log
// and a compressed client stream at every byte offset past their magic and
// reads each prefix frame by frame as its reader does: the read ends clean
// (io.EOF) exactly where the cut falls between two frames, and with
// io.ErrUnexpectedEOF anywhere inside one — right after a frame's header
// included.
func TestCutStreamsEndCleanOnlyAtFrameBoundaries(t *testing.T) {
	q := xpath.MustParse("/nitf/head")
	bareSrv, _ := startServer(t, broadcast.TwoTierMode)
	compSrv, _ := startCompressedServer(t, broadcast.TwoTierMode)
	capture := recordFresh(t, bareSrv, q, 1)
	downlink := recordFresh(t, compSrv, q, 1)[len(captureMagic):]

	dir := t.TempDir()
	jn, _, err := journal.Open(journal.Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 3; id++ {
		if err := jn.Admit(journal.Request{ID: id, Query: "/nitf", Remaining: []uint16{1, 2, uint16(id + 2)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Commit(0, []journal.Delivery{{ID: 1, Docs: []uint16{1}}}); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	jn.Kill()

	// Each reader returns the stream offsets at which the frames it read end
	// and the error that stopped it.
	readSource := func(r io.Reader) ([]int, error) {
		fs := newFrameSource(r)
		var ends []int
		for n := 0; ; {
			fr, err := fs.next()
			if len(ends) == 0 && len(fs.hello) > 0 {
				ends = append(ends, len(fs.hello)) // a transport hello opens the stream
			}
			if err != nil {
				return ends, err
			}
			n += len(fr.raw)
			ends = append(ends, len(fs.hello)+n)
		}
	}
	readWire := func(r io.Reader) ([]int, error) {
		var ends []int
		var buf []byte
		for n := 0; ; {
			_, p, err := wire.ReadFrameInto(r, &buf)
			if err != nil {
				return ends, err
			}
			n += wire.FrameHeaderLen + len(p) + wire.FrameTrailerLen
			ends = append(ends, n)
		}
	}
	legs := []struct {
		name   string
		stream []byte
		magic  int // bytes before the first frame
		read   func(io.Reader) ([]int, error)
	}{
		{"capture", capture, len(captureMagic), readSource},
		{"journal_log", log, len("XBJWAL1\n"), readWire},
		{"compressed_client_stream", downlink, 0, readSource},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			body := leg.stream[leg.magic:]
			ends, err := leg.read(bytes.NewReader(body))
			if err != io.EOF || len(ends) < 3 || ends[len(ends)-1] != len(body) {
				t.Fatalf("whole stream: %d frames ending at %v, %v", len(ends), ends, err)
			}
			for cut := 0; cut < len(body); cut++ {
				got, err := leg.read(bytes.NewReader(body[:cut]))
				if clean := cut == 0 || slices.Contains(ends, cut); clean {
					if err != io.EOF || len(got) > 0 && got[len(got)-1] != cut {
						t.Fatalf("cut at frame boundary %d: frames ending at %v, %v", cut, got, err)
					}
				} else if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("cut at %d, inside a frame: %v, want %v", cut, err, io.ErrUnexpectedEOF)
				}
			}
		})
	}
}
