package sim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// TestCycleDecodedOnce: the clients of a cycle share its frames, decoded
// once whatever their number.
func TestCycleDecodedOnce(t *testing.T) {
	c, reqs := workload(t, 15, 40, 7)
	defer func(d func(wire.FrameType, []byte, int64, core.SizeModel) (access.Frame, error)) { decodeFrame = d }(decodeFrame)
	decodes := 0
	decodeFrame = func(t wire.FrameType, p []byte, air int64, m core.SizeModel) (access.Frame, error) {
		decodes++
		return access.Decode(t, p, air, m)
	}
	for _, n := range []int{1, len(reqs)} {
		for _, compress := range []bool{false, true} {
			decodes = 0
			aired := 0
			if _, err := Run(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: capacityFor(c), Requests: reqs[:n], Compress: compress,
				CycleSink: func(_ *engine.Cycle, enc *engine.Encoded) { aired += len(enc.Frames[0]) }}); err != nil {
				t.Fatal(err)
			}
			if decodes != aired {
				t.Errorf("%d clients, compress %v: %d frames decoded for %d aired", n, compress, decodes, aired)
			}
		}
	}
}

// TestLargeCollectionsAir: collections past the node header's 127-count flag
// capacity encode every cycle (their first tier escapes the counts of the
// nodes that hold more documents), and a reader fed the cycles off the air
// receives every query's exact answer.
func TestLargeCollectionsAir(t *testing.T) {
	for _, n := range []int{200, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: n, Seed: 3, TextScale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			pool := []xpath.Path{xpath.MustParse("/nitf/head/title"), xpath.MustParse("//p")}
			more, err := gen.Queries(c, gen.QueryConfig{NumQueries: 6, MaxDepth: 5, WildcardProb: 0.2, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			pool = append(pool, more...)
			var reqs []ClientRequest
			for _, q := range pool {
				reqs = append(reqs, ClientRequest{Query: q})
			}
			var cycles [][][]byte
			widest := 0
			res, err := Run(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize() / 3, Requests: reqs,
				CycleSink: func(cy *engine.Cycle, enc *engine.Encoded) {
					for _, nd := range cy.Index.Nodes {
						widest = max(widest, len(nd.Docs))
					}
					var frames [][]byte
					for _, f := range enc.Frames[0] {
						frames = append(frames, slices.Clone(f))
					}
					cycles = append(cycles, frames)
				}})
			if err != nil {
				t.Fatal(err)
			}
			if widest < 128 {
				t.Fatalf("the widest index node holds %d documents; the fixture does not pass the flag capacity", widest)
			}
			m := core.DefaultSizeModel()
			for i, q := range pool {
				var rd access.Reader
				s := &receiver{}
				rd.Init(core.NewNavigator(q), 1, s)
				for _, frames := range cycles {
					for _, b := range frames {
						ft, payload, err := wire.ParseFrame(b)
						if err != nil {
							t.Fatal(err)
						}
						f, err := access.Decode(ft, payload, access.Air(ft, payload, m), m)
						if err == nil {
							_, err = rd.Feed(&f)
						}
						if err != nil {
							t.Fatalf("%s: %v", q, err)
						}
					}
				}
				slices.Sort(s.got)
				if want := q.MatchingDocs(c); !slices.Equal(s.got, want) || res.Clients[i].AccessBytes <= 0 {
					t.Errorf("%s: received %d documents off the air, the answer has %d", q, len(s.got), len(want))
				}
			}
		})
	}
}

// receiver is an access.Sink that loses nothing and keeps what it receives.
type receiver struct{ got []xmldoc.DocID }

func (r *receiver) Lost() bool { return false }

func (r *receiver) Receive(f *access.Frame) error {
	r.got = append(r.got, f.Doc)
	return nil
}
