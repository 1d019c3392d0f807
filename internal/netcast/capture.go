package netcast

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmldoc"
)

// captureMagic heads a capture file. What follows it is the downlink's bytes
// exactly as they came off the air from the first cycle boundary on — on a
// compressed stream preceded by the transport hello the stream opens with —
// so a capture reads back through the client's own downlink reader.
const captureMagic = "XBCAST4\n"

// Record subscribes to a broadcast address and copies numCycles complete
// cycles (from cycle head to the last document frame) into w, producing a
// capture file readable by ReadCapture. It returns the number of cycles
// written. The context bounds the recording.
func Record(ctx context.Context, broadcastAddr string, numCycles int, w io.Writer) (int, error) {
	if numCycles <= 0 {
		return 0, fmt.Errorf("netcast: numCycles must be positive, got %d", numCycles)
	}
	conn, err := net.DialTimeout("tcp", broadcastAddr, 5*time.Second)
	if err != nil {
		return 0, fmt.Errorf("netcast: record dial: %w", err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetReadDeadline(deadline)
	}
	src := newFrameSource(conn)
	if err := src.sniff(); err != nil {
		return 0, err
	}
	if _, err := io.WriteString(w, captureMagic); err != nil {
		return 0, err
	}
	if _, err := w.Write(src.hello); err != nil {
		return 0, err
	}
	var (
		recorded int
		inCycle  bool
		multi    bool // stream carries channel heads (multichannel, v3)
	)
	for recorded < numCycles {
		if err := ctx.Err(); err != nil {
			return recorded, err
		}
		fr, err := src.next()
		if err != nil {
			return recorded, fmt.Errorf("netcast: record read: %w", err)
		}
		// The cycle boundary is the channel head on a multichannel stream
		// (every channel's share opens with one), the cycle head otherwise.
		// A stream is known multichannel from its first channel head; a
		// cycle head only bounds cycles until then, so on the index channel
		// — where the channel head precedes the cycle head — the cycle head
		// never double-counts.
		if fr.t == wire.FrameChannelHead {
			multi = true
		}
		if fr.t == wire.FrameChannelHead || (fr.t == wire.FrameCycleHead && !multi) {
			if inCycle {
				recorded++
				if recorded == numCycles {
					return recorded, nil
				}
			}
			inCycle = true
		}
		if !inCycle {
			continue // wait for a cycle boundary before recording
		}
		if _, err := w.Write(fr.raw); err != nil {
			return recorded, err
		}
	}
	return recorded, nil
}

// WriteIndexSnapshot writes ix, packed under tier, to w as a one-cycle
// capture: the capture magic, a cycle head whose organisation names the tier
// and which carries the index's root labels and catalog, and one index frame.
// ReadCapture reads it back like any recorded broadcast. A capture carries no
// size model — its readers decode under the default one — so an index built
// under another model is refused.
func WriteIndexSnapshot(w io.Writer, ix *core.Index, tier core.Tier) error {
	if ix.Model != core.DefaultSizeModel() {
		return fmt.Errorf("netcast: a capture holds the default size model only, index has %+v", ix.Model)
	}
	if tier != core.OneTier && tier != core.FirstTier {
		return fmt.Errorf("netcast: invalid tier %v", tier)
	}
	cat := wire.BuildCatalog(ix)
	catBytes, err := cat.Encode()
	if err != nil {
		return err
	}
	head, err := (&wire.CycleHead{TwoTier: tier == core.FirstTier, RootLabels: wire.RootLabels(ix), Catalog: catBytes}).Append(nil)
	if err != nil {
		return err
	}
	seg, err := wire.AppendIndex(nil, ix, ix.Pack(tier), cat, nil)
	if err != nil {
		return err
	}
	out, err := wire.AppendFrame([]byte(captureMagic), wire.FrameCycleHead, head)
	if err == nil {
		out, err = wire.AppendFrame(out, wire.FrameIndex, seg)
	}
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// CycleRecord is one captured cycle — on a multichannel stream, one
// channel's share of one cycle.
type CycleRecord struct {
	// Number is the cycle sequence number from the head.
	Number uint32
	// TwoTier reports the broadcast mode.
	TwoTier bool
	// Succinct reports that the index segment is the succinct
	// balanced-parentheses tier rather than the node-pointer stream.
	Succinct bool
	// Channel and Channels identify a multichannel capture's stream: this
	// record holds cycle Number's share on channel Channel of Channels.
	// Both are zero in a single-channel capture.
	Channel, Channels uint8
	// IsData reports a data channel's record (second-tier stripe plus
	// documents, no index segment).
	IsData bool
	// NumDocs is the document count promised by the channel head
	// (multichannel only; used to detect truncated trailing records).
	NumDocs uint16
	// IndexSeg is the raw packed index segment.
	IndexSeg []byte
	// SecondTierSeg is the raw second-tier segment (two-tier mode only).
	SecondTierSeg []byte
	// DirSeg is the raw channel-directory segment (multichannel index
	// channel only).
	DirSeg []byte
	// Docs holds each document frame's payload: 2 ID bytes then XML.
	Docs [][]byte

	head *wire.CycleHead
}

// ChannelDir decodes the captured channel directory; nil for single-channel
// captures and data-channel records.
func (r *CycleRecord) ChannelDir(m core.SizeModel) ([]wire.ChannelDirEntry, error) {
	if r.DirSeg == nil {
		return nil, nil
	}
	return wire.DecodeChannelDir(r.DirSeg, m)
}

// complete reports whether the record captured its cycle's whole share:
// single-channel and index-channel records need the index segment, data
// channels every promised document.
func (r *CycleRecord) complete() bool {
	if r.IsData {
		return len(r.Docs) == int(r.NumDocs)
	}
	return r.IndexSeg != nil
}

// DocID extracts the document ID of a captured document payload.
func (r *CycleRecord) DocID(i int) xmldoc.DocID {
	p := r.Docs[i]
	return xmldoc.DocID(uint16(p[0]) | uint16(p[1])<<8)
}

// DecodeIndex reconstructs the cycle's air index from the captured bytes.
func (r *CycleRecord) DecodeIndex(m core.SizeModel) (*core.Index, error) {
	if r.head == nil {
		return nil, fmt.Errorf("netcast: record carries no index (data channel capture)")
	}
	return access.DecodeIndex(r.IndexSeg, r.head, m)
}

// SecondTier decodes the captured offset list.
func (r *CycleRecord) SecondTier(m core.SizeModel) ([]wire.SecondTierEntry, error) {
	if r.SecondTierSeg == nil {
		return nil, nil
	}
	return wire.DecodeSecondTier(r.SecondTierSeg, m)
}

// ReadCapture parses a capture file into complete cycle records, reading
// the frames through the same downlink reader a client uses. A trailing
// partial cycle (recording cut mid-cycle) is dropped; a corrupt frame in the
// middle of a capture is an error, never a panic. Files of the retired
// formats (magics XBCAST1 to XBCAST3) are not capture files.
func ReadCapture(r io.Reader) ([]CycleRecord, error) {
	magic := make([]byte, len(captureMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("netcast: capture header: %w", err)
	}
	if string(magic) != captureMagic {
		return nil, fmt.Errorf("netcast: not a capture file")
	}
	src := newFrameSource(r)
	var (
		records []CycleRecord
		cur     *CycleRecord
	)
	for {
		src.buf = nil // each frame reads into a buffer of its own, which its record keeps
		fr, err := src.next()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			break // end of capture, or a truncated trailing frame
		}
		if err != nil {
			return nil, err
		}
		payload := fr.payload
		switch fr.t {
		case wire.FrameChannelHead:
			if cur != nil {
				records = append(records, *cur)
			}
			ch, err := wire.DecodeChannelHead(payload)
			if err != nil {
				return nil, err
			}
			cur = &CycleRecord{
				Number:   ch.Number,
				Channel:  ch.Channel,
				Channels: ch.Channels,
				IsData:   ch.Role == wire.ChannelRoleData,
				NumDocs:  ch.NumDocs,
			}
		case wire.FrameCycleHead:
			head, err := wire.DecodeCycleHead(payload)
			if err != nil {
				return nil, err
			}
			if cur != nil && cur.Channels > 0 {
				// Multichannel index channel: the cycle head rides inside
				// the channel-head-bounded record.
				cur.TwoTier = head.TwoTier
				cur.Succinct = head.Succinct
				cur.head = head
				continue
			}
			if cur != nil {
				records = append(records, *cur)
			}
			cur = &CycleRecord{Number: head.Number, TwoTier: head.TwoTier, Succinct: head.Succinct, head: head}
		case wire.FrameChannelDir:
			if cur != nil {
				cur.DirSeg = payload
			}
		case wire.FrameIndex:
			if cur != nil {
				cur.IndexSeg = payload
			}
		case wire.FrameSecondTier:
			if cur != nil {
				cur.SecondTierSeg = payload
			}
		case wire.FrameDoc:
			if cur != nil {
				if len(payload) < 2 {
					return nil, fmt.Errorf("netcast: short doc frame in capture")
				}
				cur.Docs = append(cur.Docs, payload)
			}
		default:
			return nil, fmt.Errorf("netcast: unexpected frame type %d in capture", fr.t)
		}
	}
	if cur != nil && cur.complete() {
		records = append(records, *cur)
	}
	return records, nil
}
