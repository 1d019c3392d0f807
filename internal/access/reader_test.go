package access

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// layout is one broadcast organisation the reader must follow.
type layout struct {
	name     string
	mode     broadcast.Mode
	enc      core.IndexEncoding
	channels int
}

var layouts = []layout{
	{"one-tier", broadcast.OneTierMode, core.EncodingNode, 1},
	{"two-tier-node", broadcast.TwoTierMode, core.EncodingNode, 1},
	{"two-tier-succinct", broadcast.TwoTierMode, core.EncodingSuccinct, 1},
	{"k2", broadcast.TwoTierMode, core.EncodingNode, 2},
}

// airedCycle assembles and encodes one cycle of the layout pending the
// queries, and decodes its frames per channel as a bare-wire driver does.
func airedCycle(t testing.TB, l layout, queries []xpath.Path) ([][]Frame, *engine.Engine) {
	t.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Collection: c, Mode: l.mode, IndexEncoding: l.enc, Channels: l.channels, CycleCapacity: c.TotalSize()})
	if err != nil {
		t.Fatal(err)
	}
	var pending []engine.Pending
	for i, q := range queries {
		pending = append(pending, engine.Pending{ID: int64(i), Query: q, Remaining: eng.Resolve(q)})
	}
	cy, err := eng.AssembleCycleAt(0, 0, 0, pending)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := eng.EncodeCycle(cy)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]Frame, len(enc.Frames))
	for ch, frames := range enc.Frames {
		for _, b := range frames {
			ft, payload, err := wire.ParseFrame(b)
			if err != nil {
				t.Fatal(err)
			}
			f, err := Decode(ft, payload, Air(ft, payload, core.DefaultSizeModel()), core.DefaultSizeModel())
			if err != nil {
				t.Fatal(err)
			}
			out[ch] = append(out[ch], f)
		}
	}
	return out, eng
}

// testQueries are queries over the NITF fixture with non-empty answers.
var testQueries = []xpath.Path{xpath.MustParse("/nitf/head/title"), xpath.MustParse("/nitf/body/body.content/block"), xpath.MustParse("//p")}

// sink records what a reader hands it; lose, if set, decides each reception.
type sink struct {
	got  []xmldoc.DocID
	lose func() bool
}

func (s *sink) Lost() bool { return s.lose != nil && s.lose() }

func (s *sink) Receive(f *Frame) error {
	s.got = append(s.got, f.Doc)
	return nil
}

// feed plays a cycle to a reader the way a driver does: frames off the
// channel the tuner is on, a frame of a later cycle held for the next visit.
func feed(t testing.TB, r *Reader, cycle [][]Frame) {
	t.Helper()
	next := make([]int, len(cycle))
	for {
		ch := r.Channel()
		if next[ch] == len(cycle[ch]) {
			return
		}
		ahead, err := r.Feed(&cycle[ch][next[ch]])
		if err != nil {
			t.Fatal(err)
		}
		if !ahead {
			next[ch]++
		}
	}
}

// TestReaderRetrievesResultSet: over every organisation a reader receives
// exactly the query's answer off one cycle that airs it, and tunes into the
// first tier by the packets (or blob bytes) its lookup touches.
func TestReaderRetrievesResultSet(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			queries := testQueries
			cycle, eng := airedCycle(t, l, queries)
			for _, q := range queries {
				var s sink
				var r Reader
				r.Init(core.NewNavigator(q), l.channels, &s)
				feed(t, &r, cycle)
				want := eng.Resolve(q)
				if !r.Done() || len(s.got) != len(want) {
					t.Fatalf("%s: received %v, want %v", q, s.got, want)
				}
				st := r.Stats()
				var air, index int64
				for _, frames := range cycle {
					for _, f := range frames {
						air += f.Air
						if f.Type == wire.FrameIndex {
							index = f.Air
						}
					}
				}
				if st.IndexTuning+st.DocTuning+st.Doze > air || st.IndexTuning == 0 || st.Cycles != 1 {
					t.Errorf("%s: stats %+v over %d bytes of air", q, st, air)
				}
				var whole Reader
				whole.Init(core.NewNavigator(q), l.channels, &sink{})
				whole.WholeTier = true
				feed(t, &whole, cycle)
				if d := whole.Stats().IndexTuning - st.IndexTuning; d < 0 || d > index {
					t.Errorf("%s: a whole-tier read costs %d more than the touched one, of a %d-byte index", q, d, index)
				}
			}
		})
	}
}

// TestReaderLossOrder: receptions are lost in air order — first tier, second
// tier, then each wanted document — and a lost one costs its air but
// delivers nothing: a lost first tier is read again next cycle.
func TestReaderLossOrder(t *testing.T) {
	q := testQueries[1]
	cycle, eng := airedCycle(t, layouts[1], []xpath.Path{q})
	n := 0
	s := &sink{lose: func() bool { n++; return n == 1 }} // the first tier
	var r Reader
	r.Init(core.NewNavigator(q), 1, s)
	feed(t, &r, cycle)
	if r.Remaining() != nil || len(s.got) != 0 || n != 2 {
		t.Fatalf("after a lost first tier: remaining %v, received %v, %d receptions", r.Remaining(), s.got, n)
	}
	feed(t, &r, cycle)
	if want := eng.Resolve(q); !r.Done() || len(s.got) != len(want) || n != 4+len(want) {
		t.Fatalf("next cycle: received %v of %v after %d receptions", s.got, want, n)
	}
}

// TestWarmReaderAllocs: a reader that knows its result set, fed a K = 1
// cycle decoded once, allocates nothing — downloads included.
func TestWarmReaderAllocs(t *testing.T) {
	for _, l := range layouts[:3] {
		t.Run(l.name, func(t *testing.T) {
			q := testQueries[1]
			cycle, eng := airedCycle(t, l, []xpath.Path{q})
			want := eng.Resolve(q)
			var r Reader
			r.Init(core.NewNavigator(q), 1, &sink{got: make([]xmldoc.DocID, 0, 1)})
			feed(t, &r, cycle) // warm: the index decoded and navigated
			s := &sink{got: make([]xmldoc.DocID, 0, len(want))}
			r.sink = s
			allocs := testing.AllocsPerRun(20, func() {
				r.remaining, s.got = append(r.remaining[:0], want...), s.got[:0]
				for i := range cycle[0] {
					if _, err := r.Feed(&cycle[0][i]); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 || len(s.got) != len(want) {
				t.Errorf("a warm cycle allocated %v times receiving %d of %d documents", allocs, len(s.got), len(want))
			}
		})
	}
}

// TestStrayIndexFramesOnDataChannelAreDozed pins the single tuner's gate:
// cycle state is only ever taken from the index channel, so a checksum-valid
// cycle head, channel directory, first tier or second-tier stripe turning up
// on a data stream is dozed and leaves the head, the wanted set and the tuner
// where they were. The gate goes by frame type alone: a driver that asks Skip
// first never decodes such a frame, so one that would not decode is dozed
// too, as is anything but a boundary before the stream is synced.
func TestStrayIndexFramesOnDataChannelAreDozed(t *testing.T) {
	m := core.DefaultSizeModel()
	head := &wire.CycleHead{Number: 5, TwoTier: true}
	want := []xmldoc.DocID{3}
	r := &Reader{synced: true, head: head, sink: &sink{},
		mc: &multichannel{want: want, onChan: []bool{false, true}, cur: 1, docsLeft: 2}}
	headBytes, err := (&wire.CycleHead{Number: 9, TwoTier: true}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := []struct {
		t       wire.FrameType
		payload []byte
	}{
		{wire.FrameCycleHead, headBytes},
		{wire.FrameCycleHead, []byte{0xFF}},
		{wire.FrameChannelDir, []byte{0xFF, 0xFF, 0xFF}},
		{wire.FrameIndex, []byte{0xFF}},
		{wire.FrameSecondTier, []byte{0xFF}},
	}
	var air int64
	feedRaw := func(t wire.FrameType, payload []byte) error {
		air += int64(len(payload))
		if r.Skip(t, int64(len(payload))) {
			return nil
		}
		f, err := Decode(t, payload, int64(len(payload)), m)
		if err != nil {
			return err
		}
		_, err = r.Feed(&f)
		return err
	}
	for _, fr := range frames {
		if err := feedRaw(fr.t, fr.payload); err != nil {
			t.Fatalf("frame type %d on a data channel: %v", fr.t, err)
		}
	}
	if r.head != head || len(r.mc.want) != 1 || r.mc.want[0] != 3 || r.Channel() != 1 || r.mc.docsLeft != 2 || r.mc.dir != nil {
		t.Errorf("stray index frames changed the cycle state: head=%+v want=%v cur=%d docsLeft=%d dir=%v",
			r.head, r.mc.want, r.Channel(), r.mc.docsLeft, r.mc.dir)
	}
	// Before the stream's first boundary, any other frame is dozed unread.
	r.Resync(1)
	if err := feedRaw(wire.FrameDoc, []byte{0xFF}); err != nil {
		t.Fatalf("undecodable document before sync: %v", err)
	}
	if st := r.Stats(); st.Doze != air || st.IndexTuning+st.DocTuning != 0 || st.Cycles != 0 {
		t.Errorf("stats = %+v, want %d doze bytes and nothing else", st, air)
	}
}

// FuzzReader: over any sequence of frames — a few real cycles' frames in any
// order, with any air cost and transport marking, and frames decoded from
// arbitrary payloads — a reader never panics, never hands its sink a
// document outside the result set it decoded, and never counts more tuning
// and doze than the air it was fed.
func FuzzReader(f *testing.F) {
	var pool [][]Frame // per layout, every channel's frames
	for _, l := range layouts {
		cycle, _ := airedCycle(f, l, testQueries)
		var all []Frame
		for _, frames := range cycle {
			all = append(all, frames...)
		}
		pool = append(pool, all)
	}
	var navs []*core.Navigator // shared, as the frames' index reads are memoised per navigator
	for _, q := range testQueries {
		navs = append(navs, core.NewNavigator(q))
	}
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{3, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{2, 1, 0, 1, 2, 0xF3, 3, 9, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		l, frames := int(data[0])%len(layouts), pool[int(data[0])%len(layouts)]
		s := &sink{}
		var r Reader
		r.Init(navs[int(data[1])%len(navs)], layouts[l].channels, s)
		r.WholeTier = data[1]&4 != 0
		var result []xmldoc.DocID
		var air int64
		for i := 2; i < len(data); i++ {
			b := data[i]
			var fr Frame
			if b&0xF0 == 0xF0 && i+2 < len(data) {
				// A frame decoded from the bytes that follow.
				n := int(data[i+1]) % (len(data) - i - 1)
				var err error
				if fr, err = Decode(wire.FrameType(b&0x0F), data[i+2:i+2+n], int64(n), core.DefaultSizeModel()); err != nil {
					continue
				}
				i += 1 + n
			} else {
				fr = frames[int(b&0x7F)%len(frames)]
				fr.Whole = b&0x80 != 0
			}
			ahead, err := r.Feed(&fr)
			if err != nil {
				r.Resync(r.Channel())
			}
			if !ahead {
				air += fr.Air
			}
			if result == nil && r.Remaining() != nil {
				result = append([]xmldoc.DocID{}, r.Remaining()...)
				if len(s.got) > 0 {
					t.Fatalf("received %v before the result set was known", s.got)
				}
			}
		}
		for _, d := range s.got {
			if !xmldoc.HasID(result, d) {
				t.Fatalf("received document %d outside the result set %v", d, result)
			}
		}
		if st := r.Stats(); st.IndexTuning+st.DocTuning+st.Doze > air {
			t.Fatalf("stats %+v exceed the %d bytes of air fed", st, air)
		}
	})
}
