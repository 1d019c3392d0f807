package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// CycleHead is the head segment that opens every cycle: what a receiver
// must hold before it can decode the cycle's index. Its organisation byte
// negotiates the index layout per cycle — 0 = one-tier, 1 = two-tier with
// the node-pointer index, 2 = two-tier with the succinct balanced-parentheses
// tier — so a receiver that predates a value rejects the head cleanly instead
// of mis-decoding the index segment.
//
// Layout: uint32 cycle number, uint8 organisation, uint16 document count,
// uint8 root count and length-prefixed (uint8) root labels, uint32 catalog
// length and the encoded catalog.
type CycleHead struct {
	Number     uint32
	TwoTier    bool
	Succinct   bool // the first tier is the succinct encoding (implies TwoTier)
	NumDocs    uint16
	RootLabels []string // labels of the index roots, in root order
	Catalog    []byte   // the encoded label catalog (Catalog.Encode)
}

// cycleHeadFixed is the head's length without root labels and catalog:
// number, organisation, document count, root count and catalog length.
const cycleHeadFixed = 4 + 1 + 2 + 1 + 4

// Size is the head's encoded length in bytes.
func (h *CycleHead) Size() int {
	n := cycleHeadFixed + len(h.Catalog)
	for _, l := range h.RootLabels {
		n += 1 + len(l)
	}
	return n
}

// Append appends the encoded head to dst and returns the extended slice.
func (h *CycleHead) Append(dst []byte) ([]byte, error) {
	if len(h.RootLabels) > 0xFF {
		return nil, fmt.Errorf("wire: %d root labels exceed limit", len(h.RootLabels))
	}
	org := byte(0)
	switch {
	case h.Succinct:
		if !h.TwoTier {
			return nil, fmt.Errorf("wire: succinct cycle head requires two-tier")
		}
		org = 2
	case h.TwoTier:
		org = 1
	}
	dst = binary.LittleEndian.AppendUint32(dst, h.Number)
	dst = append(dst, org)
	dst = binary.LittleEndian.AppendUint16(dst, h.NumDocs)
	dst = append(dst, byte(len(h.RootLabels)))
	for _, l := range h.RootLabels {
		if len(l) > 0xFF {
			return nil, fmt.Errorf("wire: root label %q too long", l)
		}
		dst = append(dst, byte(len(l)))
		dst = append(dst, l...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(h.Catalog)))
	return append(dst, h.Catalog...), nil
}

// DecodeCycleHead is the inverse of CycleHead.Append. The head owns its
// catalog bytes: it outlives the frame buffer it was decoded from.
func DecodeCycleHead(data []byte) (*CycleHead, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("wire: cycle head truncated")
	}
	if data[4] > 2 {
		return nil, fmt.Errorf("wire: cycle head organisation %d unknown", data[4])
	}
	h := &CycleHead{
		Number:   binary.LittleEndian.Uint32(data),
		TwoTier:  data[4] >= 1,
		Succinct: data[4] == 2,
		NumDocs:  binary.LittleEndian.Uint16(data[5:]),
	}
	pos := 7
	nRoots := int(data[pos])
	pos++
	for i := 0; i < nRoots; i++ {
		if pos >= len(data) {
			return nil, fmt.Errorf("wire: cycle head truncated at root %d", i)
		}
		l := int(data[pos])
		pos++
		if pos+l > len(data) {
			return nil, fmt.Errorf("wire: root label %d truncated", i)
		}
		h.RootLabels = append(h.RootLabels, string(data[pos:pos+l]))
		pos += l
	}
	if pos+4 > len(data) {
		return nil, fmt.Errorf("wire: cycle head catalog length truncated")
	}
	cl := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	if pos+cl > len(data) {
		return nil, fmt.Errorf("wire: cycle head catalog truncated")
	}
	h.Catalog = bytes.Clone(data[pos : pos+cl])
	return h, nil
}
