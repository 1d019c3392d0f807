// Package access is the client side of the paper's access protocol (§3.4),
// written once for netcast and the simulator. A Reader follows one query
// through the broadcast, frame by frame in air order: the first tier once
// (two-tier) or the index every cycle (one-tier), the second tier every cycle
// after that, the channel directory and the hops to the data channels on a
// multichannel broadcast, and the result documents so located; it dozes
// through the rest. It counts both in air bytes, the tuning time and doze of
// Eq. 1 (TT = L_I + n·L_O), and knows no transport and no clock.
package access

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/succinct"
	"repro/internal/wire"
	"repro/internal/xmldoc"
)

// Frame is one broadcast frame as a reader consumes it: its type, its air
// cost and its payload decoded. A driver that feeds one cycle to many
// readers decodes its frames once and feeds them all the same ones.
type Frame struct {
	Type wire.FrameType
	// Air is what tuning into the frame, or dozing through it, costs.
	Air int64
	// Whole marks a frame read whole or not at all (a transport envelope
	// must be held entire to inflate it): an index read costs all its Air.
	Whole bool

	Head    *wire.CycleHead        // FrameCycleHead
	Channel *wire.ChannelHead      // FrameChannelHead
	Dir     []wire.ChannelDirEntry // FrameChannelDir
	Index   *Index                 // FrameIndex
	Offsets []wire.SecondTierEntry // FrameSecondTier
	Doc     xmldoc.DocID           // FrameDoc
	Body    []byte                 // FrameDoc: the document's XML
}

// Air is a bare frame's cost on air: its payload, but an index segment airs
// in whole packets (L_I; the wire drops the last one's padding) and a
// document frame's 2 ID bytes are framing, not the document.
func Air(t wire.FrameType, payload []byte, m core.SizeModel) int64 {
	switch n := int64(len(payload)); t {
	case wire.FrameIndex:
		return (n + int64(m.PacketBytes) - 1) / int64(m.PacketBytes) * int64(m.PacketBytes)
	case wire.FrameDoc:
		return max(n-2, 0)
	default:
		return n
	}
}

// Decode decodes one frame's payload; Index and Body alias it. The index is
// decoded on its first read, under the cycle head. An undecodable payload or
// an unknown frame type is an error satisfying wire.IsCorrupt.
func Decode(t wire.FrameType, payload []byte, air int64, m core.SizeModel) (Frame, error) {
	f := Frame{Type: t, Air: air}
	var err error
	switch t {
	case wire.FrameCycleHead:
		f.Head, err = wire.DecodeCycleHead(payload)
	case wire.FrameChannelHead:
		f.Channel, err = wire.DecodeChannelHead(payload)
	case wire.FrameChannelDir:
		f.Dir, err = wire.DecodeChannelDir(payload, m)
	case wire.FrameIndex:
		f.Index = &Index{seg: payload, m: m}
	case wire.FrameSecondTier:
		f.Offsets, err = wire.DecodeSecondTier(payload, m)
	case wire.FrameDoc:
		if len(payload) < 2 {
			return Frame{}, wire.ErrFrameCorrupt
		}
		f.Doc, f.Body = xmldoc.DocID(binary.LittleEndian.Uint16(payload)), payload[2:]
	default:
		// Version skew, or a scan that locked onto the wrong boundary.
		err = fmt.Errorf("unknown frame type %d", t)
	}
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %v", wire.ErrFrameCorrupt, err)
	}
	return f, nil
}

// Index is one cycle's index segment, decoded on its first read and
// navigated once per navigator: the readers of a shared frame share both,
// and may read it from concurrent goroutines. The lock is held across a
// navigation, so a navigator shared by readers of one frame is used by one
// goroutine at a time.
type Index struct {
	seg []byte
	m   core.SizeModel

	mu   sync.Mutex      // guards the rest
	head *wire.CycleHead // decoded under; nil before the first read
	err  error

	ix    *core.Index
	p     *core.Packing   // ix's layout as it aired
	offs  wire.DocOffsets // one-tier: the documents the cycle airs
	st    *succinct.Tier  // a succinct first tier, navigated in place
	cur   *succinct.Cursor
	reads map[*core.Navigator]indexRead
}

// indexRead is one navigator's read: the result set and the bytes touched.
type indexRead struct {
	docs    []xmldoc.DocID
	touched int64
}

// Read navigates an index frame, announced by head, for nav. It returns the
// query's result set, where a one-tier index places the cycle's documents
// (nil on a first tier), and the read's cost: the packets (node stream) or
// blob bytes (succinct tier) the lookup touches, or the frame's whole Air
// when wholeTier is set or the frame is Whole.
func (f *Frame) Read(head *wire.CycleHead, nav *core.Navigator, wholeTier bool) ([]xmldoc.DocID, wire.DocOffsets, int64, error) {
	x := f.Index
	x.mu.Lock()
	rd, err := x.read(head, nav)
	offs := x.offs
	x.mu.Unlock()
	switch {
	case err != nil:
		return nil, nil, 0, err
	case wholeTier || f.Whole:
		return rd.docs, offs, f.Air, nil
	}
	return rd.docs, offs, min(rd.touched, f.Air), nil
}

// read is nav's read of the index as head describes it, decoded and
// navigated on the first ask. Called with x.mu held.
func (x *Index) read(head *wire.CycleHead, nav *core.Navigator) (indexRead, error) {
	if x.head != head {
		x.decode(head)
	}
	if x.err != nil {
		return indexRead{}, x.err
	}
	rd, ok := x.reads[nav]
	if !ok {
		if x.st != nil {
			if x.cur == nil {
				x.cur = x.st.NewCursor()
			}
			rd.docs = append([]xmldoc.DocID(nil), x.cur.Lookup(nav.Filter())...)
			rd.touched = int64(x.cur.TouchedBytes())
		} else {
			res := nav.Lookup(x.ix)
			rd.docs, rd.touched = res.Docs, int64(x.p.BytesFor(res.Visited))
		}
		if x.reads == nil {
			x.reads = make(map[*core.Navigator]indexRead)
		}
		x.reads[nav] = rd
	}
	return rd, nil
}

// decode decodes the segment as head describes it: the head's catalog, the
// tier its organisation names, its root labels. A succinct first tier is
// parsed, not materialised. What an earlier head decoded is dropped field by
// field, the lock left alone.
func (x *Index) decode(head *wire.CycleHead) {
	x.head, x.err = head, nil
	x.ix, x.p, x.offs, x.st, x.cur = nil, nil, nil, nil, nil
	clear(x.reads)
	cat, err := wire.DecodeCatalog(head.Catalog)
	switch {
	case err != nil:
	case head.Succinct:
		x.st, err = succinct.Parse(x.seg, x.m, cat)
	default:
		tier := core.OneTier
		if head.TwoTier {
			tier = core.FirstTier
		}
		if x.ix, x.p, x.offs, err = wire.DecodeIndexLayout(x.seg, x.m, tier, cat); err == nil {
			err = wire.ApplyRootLabels(x.ix, head.RootLabels)
		}
	}
	if err != nil {
		x.err = fmt.Errorf("%w: index: %v", wire.ErrFrameCorrupt, err)
	}
}

// DecodeIndex decodes an index segment as head describes it into a
// materialised index, a succinct first tier included.
func DecodeIndex(seg []byte, head *wire.CycleHead, m core.SizeModel) (*core.Index, error) {
	x := &Index{seg: seg, m: m}
	switch x.decode(head); {
	case x.err != nil:
		return nil, x.err
	case x.st != nil:
		return x.st.Decode()
	}
	return x.ix, nil
}
