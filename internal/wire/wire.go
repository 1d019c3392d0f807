// Package wire provides the binary on-air encoding of the air index and the
// second-tier offset list. Field widths come from the index's core.SizeModel,
// so the byte streams produced here have exactly the sizes the analytic model
// and the simulator account for: what is measured is what a receiver decodes.
//
// Layout per node (paper Fig. 3(c)):
//
//	flag block   — FlagBytes; packs the node kind (2 bits) with the child
//	               and document tuple counts (remaining bits split evenly)
//	escapes      — a count at or above the flag's capacity (127 at the
//	               default 2-byte flag) is written there as the capacity
//	               and follows the flag block in full: the child count
//	               (EntryLabelBytes), then the document count (DocIDBytes)
//	entry tuples — child label ID (EntryLabelBytes) + child byte offset
//	               (PointerBytes), label-sorted
//	doc tuples   — document ID (DocIDBytes) [+ document byte offset within
//	               the current cycle (PointerBytes) in one-tier layout]
//
// Nodes appear at the byte offsets assigned by core.Packing; alignment
// padding is zero-filled, which is unambiguous because a node's first flag
// byte is never zero (kinds start at 1).
package wire

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/xmldoc"
)

// NotInCycle is the document-offset sentinel meaning "this document is not
// broadcast in the current cycle" (all pointer bits set).
const NotInCycle = ^uint64(0)

// DocOffsets maps document IDs to their byte offsets within a broadcast
// cycle's document section.
type DocOffsets map[xmldoc.DocID]uint64

// Catalog is the label dictionary broadcast once per cycle head so that
// entry tuples can carry fixed-width label IDs.
type Catalog struct {
	labels  []string
	byLabel map[string]uint32
}

// BuildCatalog collects the distinct labels of an index in sorted order.
func BuildCatalog(ix *core.Index) *Catalog {
	set := make(map[string]struct{})
	for i := range ix.Nodes {
		set[ix.Nodes[i].Label] = struct{}{}
	}
	labels := make([]string, 0, len(set))
	for l := range set {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return newCatalog(labels)
}

func newCatalog(labels []string) *Catalog {
	c := &Catalog{labels: labels, byLabel: make(map[string]uint32, len(labels))}
	for i, l := range labels {
		c.byLabel[l] = uint32(i)
	}
	return c
}

// Len reports the number of labels.
func (c *Catalog) Len() int { return len(c.labels) }

// ID resolves a label to its dictionary ID.
func (c *Catalog) ID(label string) (uint32, bool) {
	id, ok := c.byLabel[label]
	return id, ok
}

// Label resolves an ID back to its label.
func (c *Catalog) Label(id uint32) (string, bool) {
	if int(id) >= len(c.labels) {
		return "", false
	}
	return c.labels[id], true
}

// Encode serialises the catalog: a uint16 label count followed by
// length-prefixed (uint8) label strings.
func (c *Catalog) Encode() ([]byte, error) {
	if len(c.labels) > 0xFFFF {
		return nil, fmt.Errorf("wire: catalog has %d labels, max %d", len(c.labels), 0xFFFF)
	}
	out := make([]byte, 2, 2+len(c.labels)*8)
	binary.LittleEndian.PutUint16(out, uint16(len(c.labels)))
	for _, l := range c.labels {
		if len(l) > 0xFF {
			return nil, fmt.Errorf("wire: label %q longer than 255 bytes", l)
		}
		out = append(out, byte(len(l)))
		out = append(out, l...)
	}
	return out, nil
}

// DecodeCatalog is the inverse of Catalog.Encode.
func DecodeCatalog(data []byte) (*Catalog, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("wire: catalog truncated")
	}
	n := int(binary.LittleEndian.Uint16(data))
	pos := 2
	labels := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if pos >= len(data) {
			return nil, fmt.Errorf("wire: catalog truncated at label %d", i)
		}
		l := int(data[pos])
		pos++
		if pos+l > len(data) {
			return nil, fmt.Errorf("wire: catalog label %d truncated", i)
		}
		labels = append(labels, string(data[pos:pos+l]))
		pos += l
	}
	return newCatalog(labels), nil
}

// putUint writes v into buf[pos:pos+width] little-endian, erroring if v does
// not fit.
func putUint(buf []byte, pos, width int, v uint64, what string) error {
	if width < 8 && v >= 1<<(8*width) {
		return fmt.Errorf("wire: %s value %d exceeds %d-byte field", what, v, width)
	}
	for i := 0; i < width; i++ {
		buf[pos+i] = byte(v >> (8 * i))
	}
	return nil
}

func getUint(buf []byte, pos, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v |= uint64(buf[pos+i]) << (8 * i)
	}
	return v
}

// flagLayout describes how the flag block packs kind and counts.
type flagLayout struct {
	countBits int // bits per count field
}

func flagLayoutFor(m core.SizeModel) (flagLayout, error) {
	bits := m.FlagBytes*8 - 2
	if bits < 2 {
		return flagLayout{}, fmt.Errorf("wire: FlagBytes %d too small to encode node headers", m.FlagBytes)
	}
	return flagLayout{countBits: bits / 2}, nil
}

func (fl flagLayout) maxCount() int { return 1<<fl.countBits - 1 }

// pack packs a node header; a count at or above maxCount packs as maxCount,
// the escape that announces the explicit count after the flag block.
func (fl flagLayout) pack(kind core.NodeKind, children, docs int) uint64 {
	return uint64(kind) | uint64(min(children, fl.maxCount()))<<2 | uint64(min(docs, fl.maxCount()))<<(2+fl.countBits)
}

// putEscape writes a count the flag block could not hold (see pack) in full
// at pos, width bytes wide, and returns the position after it.
func (fl flagLayout) putEscape(buf []byte, pos, n, width int) (int, error) {
	if n < fl.maxCount() {
		return pos, nil
	}
	return pos + width, putUint(buf, pos, width, uint64(n), "escaped count")
}

// readEscape is the inverse of putEscape for a count n unpacked from the
// flag block. The escape is canonical: a count below the capacity is never
// escaped.
func (fl flagLayout) readEscape(data []byte, pos, n, width int) (int, int, error) {
	if n < fl.maxCount() {
		return n, pos, nil
	}
	if pos+width > len(data) {
		return 0, 0, fmt.Errorf("wire: truncated count at %d", pos)
	}
	if n = int(getUint(data, pos, width)); n < fl.maxCount() {
		return 0, 0, fmt.Errorf("wire: escaped count %d below flag capacity at %d", n, pos)
	}
	return n, pos + width, nil
}

func (fl flagLayout) unpack(v uint64) (kind core.NodeKind, children, docs int) {
	kind = core.NodeKind(v & 3)
	children = int(v >> 2 & uint64(fl.maxCount()))
	docs = int(v >> (2 + fl.countBits) & uint64(fl.maxCount()))
	return kind, children, docs
}
