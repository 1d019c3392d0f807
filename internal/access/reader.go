package access

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmldoc"
)

// Sink is what a reader reports to its driver.
type Sink interface {
	// Lost reports whether a tuned reception was lost. It is asked once per
	// frame tuned into, in air order, after its air is counted: a lost frame
	// costs its air and delivers nothing.
	Lost() bool
	// Receive takes a wanted document the reader has just retired; an error
	// puts it back and is returned by Feed.
	Receive(f *Frame) error
}

// Stats is a reader's account of the air it was fed.
type Stats struct {
	// IndexTuning is the index read: the first tier (two-tier) or the index
	// (one-tier) as its lookup touched it, the second tier and the channel
	// directory whole.
	IndexTuning int64
	// DocTuning is the documents downloaded; Doze the frames not tuned into.
	DocTuning, Doze int64
	// Cycles counts the cycle heads read.
	Cycles int
}

// Reader follows one query through the broadcast; the zero value is made
// ready by Init. It is fed frames in air order off the channel the tuner is
// on (Channel), and is not safe for concurrent use.
type Reader struct {
	// CoveredFrom is the first cycle whose index covers the query: earlier
	// cycles' indexes are dozed through. A driver moves it when it
	// re-registers the query.
	CoveredFrom uint32
	// WholeTier makes an index read cost the whole segment, not what the
	// lookup touches: the analytic model of Eq. 1.
	WholeTier bool

	// knowsDocs: an index read gave the result set, whose documents not yet
	// received are remaining (sorted). tried: the index was read this cycle,
	// so the second tier follows. synced: the stream the tuner is on showed
	// a cycle boundary; frames before one are dozed.
	knowsDocs, tried, synced bool

	nav       *core.Navigator
	sink      Sink
	stats     Stats
	remaining []xmldoc.DocID

	// The cycle, as the index channel tells it: its head, where its
	// documents air — the second tier's offsets (two-tier) or those the
	// index places on it (one-tier) — and the air fed since the head.
	head    *wire.CycleHead
	offsets []wire.SecondTierEntry
	inCycle wire.DocOffsets
	offset  int64

	mc *multichannel // nil on a single channel
}

// multichannel is what a reader of K > 1 channels keeps besides: the
// cycle's channel directory, the wanted documents it places (sorted) and the
// data channels carrying them; the channel the tuner is on and, on a data
// channel, the documents of the share still to come and whether the share
// is stale (of an earlier cycle than the head's).
type multichannel struct {
	dir           []wire.ChannelDirEntry
	want          []xmldoc.DocID
	onChan        []bool
	cur, docsLeft int
	stale         bool
}

// Init makes r a fresh reader of nav's query over a broadcast of channels
// streams, reporting to sink.
func (r *Reader) Init(nav *core.Navigator, channels int, sink Sink) {
	*r = Reader{nav: nav, sink: sink}
	if channels > 1 {
		r.mc = &multichannel{onChan: make([]bool, channels)}
	}
}

// Stats reports the air the reader was fed.
func (r *Reader) Stats() Stats { return r.stats }

// Done reports whether the whole result set has been received.
func (r *Reader) Done() bool { return r.knowsDocs && len(r.remaining) == 0 }

// Remaining is the result documents not yet received, sorted and the
// reader's own; nil until an index read gave the result set.
func (r *Reader) Remaining() []xmldoc.DocID {
	if !r.knowsDocs {
		return nil
	}
	return r.remaining
}

// Channel is the channel the next frame must come from.
func (r *Reader) Channel() int {
	if r.mc == nil {
		return 0
	}
	return r.mc.cur
}

// Offset is the air fed since the cycle head through the last frame: on a
// single channel, where that frame ends in its cycle.
func (r *Reader) Offset() int64 { return r.offset }

// Boundary is the frame type that opens a cycle's share of every stream,
// where a driver that lost a stream resumes it.
func (r *Reader) Boundary() wire.FrameType {
	if r.mc != nil {
		return wire.FrameChannelHead
	}
	return wire.FrameCycleHead
}

// Resync drops what the reader knew of channel ch's stream, which its driver
// lost; losing the index channel loses the cycle. The query survives.
func (r *Reader) Resync(ch int) {
	r.synced = false
	if r.mc != nil {
		r.mc.docsLeft, r.mc.stale = 0, false
	}
	if ch == 0 {
		r.newCycle()
	}
}

func (r *Reader) newCycle() {
	r.head, r.tried, r.offsets, r.inCycle = nil, false, nil, nil
	if mc := r.mc; mc != nil {
		mc.dir, mc.want = nil, mc.want[:0]
		clear(mc.onChan)
	}
}

// Feed applies one frame off the channel the tuner is on. ahead reports a
// data channel's share of a later cycle than the one being collected: the
// tuner has left that channel, and the driver keeps the frame for its next
// visit. An error satisfying wire.IsCorrupt means the frame, or its place in
// the stream, made no sense; the driver resyncs.
func (r *Reader) Feed(f *Frame) (ahead bool, err error) {
	if r.Skip(f.Type, f.Air) {
		return false, nil
	}
	r.advance(f.Type, f.Air)
	switch f.Type {
	case wire.FrameChannelHead:
		return r.onChannelHead(f)
	case wire.FrameCycleHead:
		if r.mc == nil {
			r.newCycle()
		}
		r.head, r.synced = f.Head, true
		r.stats.Cycles++
	case wire.FrameChannelDir:
		if r.tune(f, &r.stats.IndexTuning) && r.mc != nil {
			r.mc.dir = f.Dir
		}
	case wire.FrameIndex:
		return false, r.onIndex(f)
	case wire.FrameSecondTier:
		if r.tune(f, &r.stats.IndexTuning) {
			r.offsets = f.Offsets
		}
	case wire.FrameDoc:
		return false, r.onDoc(f)
	default:
		return false, wire.ErrFrameCorrupt
	}
	return false, nil
}

// Skip reports whether the reader dozes a frame of type t unread, and if so
// counts its air: a frame before the stream's first boundary, an index
// channel frame straying onto a data channel, or a second tier with nothing
// to look up (a data channel's stripe repeats the directory; before the
// index is read there is no result set). A driver need not decode a skipped
// frame; Feed skips it too.
func (r *Reader) Skip(t wire.FrameType, air int64) bool {
	onData := r.Channel() != 0
	skip := !r.synced && t != r.Boundary() ||
		onData && (t == wire.FrameCycleHead || t == wire.FrameChannelDir || t == wire.FrameIndex) ||
		t == wire.FrameSecondTier && (onData || !r.knowsDocs && !r.tried)
	if skip {
		r.advance(t, air)
		r.stats.Doze += air
	}
	return skip
}

// advance moves the reader's place in the cycle past a frame.
func (r *Reader) advance(t wire.FrameType, air int64) {
	if t == wire.FrameCycleHead {
		r.offset = 0
	}
	r.offset += air
}

// tune counts f's air into *cost and reports whether the reception arrived.
func (r *Reader) tune(f *Frame, cost *int64) bool {
	*cost += f.Air
	return !r.sink.Lost()
}

// onChannelHead opens a channel's share of a multichannel cycle: a new cycle
// on the index channel; on a data channel, the share of the cycle being
// collected, a stale one to doze, or one of a later cycle (the stream was
// redialled ahead) left for the next visit.
func (r *Reader) onChannelHead(f *Frame) (bool, error) {
	h, mc := f.Channel, r.mc
	if mc == nil || int(h.Channel) != mc.cur || mc.docsLeft > 0 || mc.cur != 0 && r.head == nil {
		// A single stream, the wrong stream or role, a short last share, or
		// a data share with no cycle to belong to.
		return false, wire.ErrFrameCorrupt
	}
	r.synced = true
	switch {
	case mc.cur == 0:
		r.newCycle()
	case h.Number > r.head.Number:
		r.offset -= f.Air
		r.hop()
		return true, nil
	default:
		mc.docsLeft, mc.stale = int(h.NumDocs), h.Number < r.head.Number
	}
	return false, nil
}

// onIndex reads the first tier once, from the first cycle covering the query
// (two-tier), or the index every cycle (one-tier, whose offsets change). On
// a multichannel cycle it closes the index channel's share: the hops are
// planned here.
func (r *Reader) onIndex(f *Frame) error {
	if r.head == nil || r.head.TwoTier && r.knowsDocs || r.head.Number < r.CoveredFrom {
		r.stats.Doze += f.Air
	} else {
		docs, cost, err := f.Read(r.head, r.nav, r.WholeTier)
		if err != nil {
			return err
		}
		r.tried = true
		if r.stats.IndexTuning += cost; r.sink.Lost() {
			return nil
		}
		if !r.knowsDocs {
			r.remaining, r.knowsDocs = append(r.remaining[:0], docs...), true
		}
		if !r.head.TwoTier {
			r.inCycle = f.Index.offs
		}
	}
	mc := r.mc
	if mc == nil || mc.dir == nil || r.head == nil {
		return nil
	}
	mc.want = mc.want[:0]
	for _, e := range mc.dir {
		if !xmldoc.HasID(r.remaining, e.Doc) {
			continue
		}
		if e.Channel == 0 || int(e.Channel) >= len(mc.onChan) {
			return wire.ErrFrameCorrupt
		}
		mc.want = xmldoc.InsertID(mc.want, e.Doc)
		mc.onChan[e.Channel] = true
	}
	r.hop()
	return nil
}

// hop moves the tuner to the next data channel carrying a wanted document
// this cycle, or back to the index channel.
func (r *Reader) hop() {
	mc, next := r.mc, 0
	for ch := mc.cur + 1; ch < len(mc.onChan) && next == 0; ch++ {
		if mc.onChan[ch] {
			next = ch
		}
	}
	mc.cur, mc.docsLeft, mc.stale, r.synced = next, 0, false, false
}

// located reports whether the cycle's index said where d airs.
func (r *Reader) located(d xmldoc.DocID) bool {
	if r.mc != nil {
		return xmldoc.HasID(r.mc.want, d)
	}
	if r.inCycle != nil {
		_, ok := r.inCycle[d]
		return ok
	}
	_, ok := slices.BinarySearchFunc(r.offsets, d, func(e wire.SecondTierEntry, d xmldoc.DocID) int { return cmp.Compare(e.Doc, d) })
	return ok // the second tier is sorted by document
}

// onDoc downloads a located document of the result set and hands it to the
// sink; any other document is dozed.
func (r *Reader) onDoc(f *Frame) error {
	mc := r.mc
	if mc != nil && mc.stale || !xmldoc.HasID(r.remaining, f.Doc) || !r.located(f.Doc) {
		r.stats.Doze += f.Air
	} else if r.tune(f, &r.stats.DocTuning) {
		r.remaining = xmldoc.RemoveID(r.remaining, f.Doc)
		if err := r.sink.Receive(f); err != nil {
			r.remaining = xmldoc.InsertID(r.remaining, f.Doc)
			return err
		}
	}
	if mc != nil && mc.cur != 0 {
		if mc.docsLeft--; mc.docsLeft == 0 && !mc.stale {
			r.hop() // the channel's share of the cycle is through
		}
	}
	return nil
}
