package wire

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/xmldoc"
)

// EncodeIndex serialises an index into its packed byte stream. The layout
// (node offsets, padding, total length) comes from p, which must have been
// produced by ix.Pack. In one-tier layout, docOffsets supplies each
// document's byte offset within the current cycle; documents absent from the
// map encode the NotInCycle sentinel. In first-tier layout docOffsets is
// ignored.
func EncodeIndex(ix *core.Index, p *core.Packing, cat *Catalog, docOffsets DocOffsets) ([]byte, error) {
	return AppendIndex(nil, ix, p, cat, docOffsets)
}

// AppendIndex is EncodeIndex appending to dst (which may be a pooled or
// recycled buffer) and returning the extended slice, so steady-state
// encoders can reuse one backing array across cycles.
func AppendIndex(dst []byte, ix *core.Index, p *core.Packing, cat *Catalog, docOffsets DocOffsets) ([]byte, error) {
	if len(p.NodeOffsets) != len(ix.Nodes) {
		return nil, fmt.Errorf("wire: packing covers %d nodes, index has %d", len(p.NodeOffsets), len(ix.Nodes))
	}
	// The flag layout is a pure function of the model, precomputed by
	// core.PackOrdered; re-deriving it per call would put a validation
	// branch on every steady-state encode.
	fl := flagLayout{countBits: p.FlagCountBits}
	if fl.countBits == 0 {
		var err error
		if fl, err = flagLayoutFor(ix.Model); err != nil {
			return nil, err
		}
	}
	m := ix.Model
	base := len(dst)
	dst = grow(dst, p.StreamBytes)
	out := dst[base:]
	ptrMax := uint64(1)<<(8*min(m.PointerBytes, 8)) - 1
	for i := range ix.Nodes {
		n := &ix.Nodes[i]
		pos := p.NodeOffsets[i]
		err := putUint(out, pos, m.FlagBytes, fl.pack(n.Kind(), len(n.Children), len(n.Docs)), "flag")
		if err != nil {
			return nil, err
		}
		pos += m.FlagBytes
		if pos, err = fl.putEscape(out, pos, len(n.Children), m.EntryLabelBytes); err != nil {
			return nil, err
		}
		if pos, err = fl.putEscape(out, pos, len(n.Docs), m.DocIDBytes); err != nil {
			return nil, err
		}
		for _, c := range n.Children {
			id, ok := cat.ID(ix.Nodes[c].Label)
			if !ok {
				return nil, fmt.Errorf("wire: label %q missing from catalog", ix.Nodes[c].Label)
			}
			if err := putUint(out, pos, m.EntryLabelBytes, uint64(id), "entry label"); err != nil {
				return nil, err
			}
			pos += m.EntryLabelBytes
			if err := putUint(out, pos, m.PointerBytes, uint64(p.NodeOffsets[c]), "child pointer"); err != nil {
				return nil, err
			}
			pos += m.PointerBytes
		}
		for _, d := range n.Docs {
			if err := putUint(out, pos, m.DocIDBytes, uint64(d), "doc id"); err != nil {
				return nil, err
			}
			pos += m.DocIDBytes
			if p.Tier == core.OneTier {
				off, ok := docOffsets[d]
				if !ok {
					off = ptrMax // NotInCycle sentinel at field width
				} else if off >= ptrMax {
					return nil, fmt.Errorf("wire: doc %d offset %d exceeds pointer width", d, off)
				}
				if err := putUint(out, pos, m.PointerBytes, off, "doc offset"); err != nil {
					return nil, err
				}
				pos += m.PointerBytes
			}
		}
		if pos != p.NodeOffsets[i]+p.NodeSizes[i] {
			return nil, fmt.Errorf("wire: node %d encoded %d bytes, packing expected %d", i, pos-p.NodeOffsets[i], p.NodeSizes[i])
		}
	}
	return dst, nil
}

// grow extends dst by n zeroed bytes, reusing capacity when available.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		base := len(dst)
		dst = dst[:base+n]
		clear(dst[base:])
		return dst
	}
	return append(dst, make([]byte, n)...)
}

// DecodeIndex parses a byte stream produced by EncodeIndex back into an
// index and, for one-tier layout, the document offsets of the current cycle.
// The returned index passes core.Index.Validate.
func DecodeIndex(data []byte, m core.SizeModel, tier core.Tier, cat *Catalog) (*core.Index, DocOffsets, error) {
	ix, _, offs, err := DecodeIndexLayout(data, m, tier, cat)
	return ix, offs, err
}

// DecodeIndexLayout is DecodeIndex that also returns the stream's layout as
// it aired, read off the stream itself: every node's byte offset and size,
// so a receiver can count the packets a lookup touches (core.Packing.BytesFor).
func DecodeIndexLayout(data []byte, m core.SizeModel, tier core.Tier, cat *Catalog) (*core.Index, *core.Packing, DocOffsets, error) {
	fl, err := flagLayoutFor(m)
	if err != nil {
		return nil, nil, nil, err
	}
	ptrMax := uint64(1)<<(8*min(m.PointerBytes, 8)) - 1

	type rawNode struct {
		offset   int
		kind     core.NodeKind
		children []uint64 // child byte offsets
		labels   []uint32 // child label ids
		docs     []xmldoc.DocID
	}
	var raws []rawNode
	var sizes []int
	byOffset := make(map[int]int)
	var offsets DocOffsets
	if tier == core.OneTier {
		offsets = make(DocOffsets)
	}

	pos := 0
	for pos < len(data) {
		if data[pos] == 0 { // padding
			pos++
			continue
		}
		start := pos
		if pos+m.FlagBytes > len(data) {
			return nil, nil, nil, fmt.Errorf("wire: truncated flag at %d", pos)
		}
		kind, nChildren, nDocs := fl.unpack(getUint(data, pos, m.FlagBytes))
		if kind < core.KindRoot || kind > core.KindLeaf {
			return nil, nil, nil, fmt.Errorf("wire: invalid node kind %d at %d", kind, pos)
		}
		pos += m.FlagBytes
		if nChildren, pos, err = fl.readEscape(data, pos, nChildren, m.EntryLabelBytes); err != nil {
			return nil, nil, nil, err
		}
		if nDocs, pos, err = fl.readEscape(data, pos, nDocs, m.DocIDBytes); err != nil {
			return nil, nil, nil, err
		}
		rn := rawNode{offset: start, kind: kind}
		if pos+nChildren*m.EntryBytes()+nDocs*m.DocTupleBytes(tier) > len(data) {
			return nil, nil, nil, fmt.Errorf("wire: truncated node at %d", start)
		}
		for c := 0; c < nChildren; c++ {
			rn.labels = append(rn.labels, uint32(getUint(data, pos, m.EntryLabelBytes)))
			pos += m.EntryLabelBytes
			rn.children = append(rn.children, getUint(data, pos, m.PointerBytes))
			pos += m.PointerBytes
		}
		for d := 0; d < nDocs; d++ {
			id := xmldoc.DocID(getUint(data, pos, m.DocIDBytes))
			pos += m.DocIDBytes
			rn.docs = append(rn.docs, id)
			if tier == core.OneTier {
				if off := getUint(data, pos, m.PointerBytes); off != ptrMax {
					offsets[id] = off
				}
				pos += m.PointerBytes
			}
		}
		byOffset[start] = len(raws)
		raws = append(raws, rn)
		sizes = append(sizes, pos-start)
	}

	// Resolve child pointers; stream order is DFS pre-order, so raw indexes
	// are the final node IDs.
	ix := &core.Index{Model: m, Nodes: make([]core.Node, len(raws))}
	p := &core.Packing{Tier: tier, Order: core.PackDFS, Model: m, NodeOffsets: make([]int, len(raws)), NodeSizes: sizes,
		StreamBytes: len(data), NumPackets: (len(data) + m.PacketBytes - 1) / m.PacketBytes, FlagCountBits: fl.countBits}
	labels := make([]string, len(raws))
	parents := make([]core.NodeID, len(raws))
	for i := range parents {
		parents[i] = core.NoNode
	}
	for i := range raws {
		rn := &raws[i]
		p.NodeOffsets[i] = rn.offset
		for ci, childOff := range rn.children {
			j, ok := byOffset[int(childOff)]
			if !ok {
				return nil, nil, nil, fmt.Errorf("wire: node at %d points to missing child offset %d", rn.offset, childOff)
			}
			label, ok := cat.Label(rn.labels[ci])
			if !ok {
				return nil, nil, nil, fmt.Errorf("wire: node at %d has unknown label id %d", rn.offset, rn.labels[ci])
			}
			labels[j] = label
			parents[j] = core.NodeID(i)
			ix.Nodes[i].Children = append(ix.Nodes[i].Children, core.NodeID(j))
		}
	}
	for i := range raws {
		ix.Nodes[i].ID = core.NodeID(i)
		ix.Nodes[i].Label = labels[i]
		ix.Nodes[i].Parent = parents[i]
		ix.Nodes[i].Docs = raws[i].docs
		if parents[i] == core.NoNode {
			ix.Roots = append(ix.Roots, core.NodeID(i))
			if raws[i].kind != core.KindRoot {
				return nil, nil, nil, fmt.Errorf("wire: unreferenced node at %d has kind %v", raws[i].offset, raws[i].kind)
			}
		}
	}
	// Root labels are not carried by entry tuples; they travel in the cycle
	// head next to the catalog. The decoder restores them positionally: the
	// k-th root takes the k-th root label (catalog order is label order, so
	// encode/decode agree through RootLabels).
	if err := ix.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("wire: decoded index invalid: %w", err)
	}
	return ix, p, offsets, nil
}

// RootLabels returns the labels of the index roots in root order; they are
// broadcast in the cycle head (the entry tuples only label non-root nodes).
func RootLabels(ix *core.Index) []string {
	out := make([]string, len(ix.Roots))
	for i, r := range ix.Roots {
		out[i] = ix.Nodes[r].Label
	}
	return out
}

// ApplyRootLabels sets the root labels on a decoded index.
func ApplyRootLabels(ix *core.Index, labels []string) error {
	if len(labels) != len(ix.Roots) {
		return fmt.Errorf("wire: %d root labels for %d roots", len(labels), len(ix.Roots))
	}
	for i, r := range ix.Roots {
		ix.Nodes[r].Label = labels[i]
	}
	return nil
}

// SecondTierEntry is one (document ID, cycle byte offset) pair.
type SecondTierEntry struct {
	Doc    xmldoc.DocID
	Offset uint64
}

// SecondTierSize reports the encoded size in bytes of a second-tier list
// with n entries: a DocIDBytes-wide count followed by the entries.
func SecondTierSize(n int, m core.SizeModel) int {
	return m.DocIDBytes + n*m.SecondTierEntryBytes()
}

// EncodeSecondTier serialises the per-cycle offset list, sorted by document
// ID.
func EncodeSecondTier(entries []SecondTierEntry, m core.SizeModel) ([]byte, error) {
	return AppendSecondTier(nil, entries, m)
}

// AppendSecondTier is EncodeSecondTier appending to dst and returning the
// extended slice.
func AppendSecondTier(dst []byte, entries []SecondTierEntry, m core.SizeModel) ([]byte, error) {
	// Cycle builders hand the list over already sorted by document ID, so
	// the copy-and-sort is reserved for callers that do not.
	sorted := entries
	if !sort.SliceIsSorted(entries, func(i, j int) bool { return entries[i].Doc < entries[j].Doc }) {
		sorted = append([]SecondTierEntry(nil), entries...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Doc < sorted[j].Doc })
	}
	base := len(dst)
	dst = grow(dst, SecondTierSize(len(sorted), m))
	out := dst[base:]
	if err := putUint(out, 0, m.DocIDBytes, uint64(len(sorted)), "second-tier count"); err != nil {
		return nil, err
	}
	pos := m.DocIDBytes
	for _, e := range sorted {
		if err := putUint(out, pos, m.DocIDBytes, uint64(e.Doc), "doc id"); err != nil {
			return nil, err
		}
		pos += m.DocIDBytes
		if err := putUint(out, pos, m.PointerBytes, e.Offset, "doc offset"); err != nil {
			return nil, err
		}
		pos += m.PointerBytes
	}
	return dst, nil
}

// DecodeSecondTier is the inverse of EncodeSecondTier.
func DecodeSecondTier(data []byte, m core.SizeModel) ([]SecondTierEntry, error) {
	if len(data) < m.DocIDBytes {
		return nil, fmt.Errorf("wire: second tier truncated")
	}
	n := int(getUint(data, 0, m.DocIDBytes))
	if len(data) < SecondTierSize(n, m) {
		return nil, fmt.Errorf("wire: second tier has %d bytes, need %d", len(data), SecondTierSize(n, m))
	}
	pos := m.DocIDBytes
	out := make([]SecondTierEntry, 0, n)
	for i := 0; i < n; i++ {
		id := xmldoc.DocID(getUint(data, pos, m.DocIDBytes))
		pos += m.DocIDBytes
		off := getUint(data, pos, m.PointerBytes)
		pos += m.PointerBytes
		out = append(out, SecondTierEntry{Doc: id, Offset: off})
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
