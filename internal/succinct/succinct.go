// Package succinct provides the balanced-parentheses (BP) first-tier
// encoding: an alternative on-air layout for the pruned CI in which tree
// topology costs 2 bits per node instead of per-child <entry, pointer>
// tuples, labels are bit-packed dictionary IDs, and document attachments
// live in a rank-indexed bitmap plus a flat tuple array.
//
// Layout (all integers little-endian, bitvectors LSB-first within bytes):
//
//	header    — u32 numNodes N, u32 numAttach A (nodes with documents),
//	            u32 numDocTuples D, u8 labelBits, u8 docIDBytes
//	bp        — 2N bits of balanced parentheses, DFS pre-order over the
//	            root forest (1 = open, 0 = close), zero-padded to whole
//	            64-bit words
//	bpdir     — one 5-byte entry per BP word: u32 rank1 before the word,
//	            i8 minimum prefix excess within the word (relative to the
//	            excess at the word start)
//	bpsuper   — one 6-byte entry per 64-word superblock: u32 rank1 before
//	            the superblock, i16 minimum prefix excess within it
//	labels    — N label IDs in pre-order, bit-packed at labelBits each
//	            (labelBits covers the whole catalog, including roots)
//	attach    — N-bit attachment bitmap (bit i set iff node i has document
//	            tuples), zero-padded to whole 64-bit words
//	attachdir — one u32 rank1-before-word entry per attach word
//	ends      — A cumulative document-tuple counts, bit-packed at
//	            bitlen(D) bits each; entry k is the end of the k-th
//	            attached node's tuple range, so ranges need no per-node
//	            offsets
//	docs      — D document IDs, docIDBytes wide, grouped by attached node
//	            in pre-order, each group sorted ascending
//
// The rank/excess directories ride along on air: a client can skip a
// subtree (findclose) or resolve a node's attachment range by reading a
// handful of directory entries instead of the subtree's packets, which is
// what makes selective tuning cheap without the node layout's pointers.
// All directory and padding bytes are canonical (recomputable from the
// data sections), so a given index has exactly one encoding.
package succinct

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/wire"
)

const (
	// headerSize is the fixed tier header length in bytes.
	headerSize = 14
	// maxCount caps the node and document-tuple counts a header may claim,
	// keeping the layout arithmetic far from integer overflow.
	maxCount = 1 << 28

	wordDirEntry   = 5 // u32 rank + i8 min excess
	superDirEntry  = 6 // u32 rank + i16 min excess
	attachDirEntry = 4 // u32 rank
	superWords     = 64
)

// layout fixes every section offset of one encoded tier; it is derived
// from the five header fields and shared by the encoder and the parser.
type layout struct {
	n, a, d    int // nodes, attached nodes, document tuples
	labelBits  int
	endBits    int
	docIDBytes int

	words    int // 64-bit BP words
	supers   int // BP superblocks
	attWords int // 64-bit attach words

	bpOff, dirOff, superOff int
	labOff                  int
	attOff, attDirOff       int
	endsOff, docsOff        int
	size                    int
}

// labelBitsFor is the bit width of one label ID over a numLabels-entry
// catalog (at least 1 so the section is well-defined).
func labelBitsFor(numLabels int) int {
	if numLabels <= 1 {
		return 1
	}
	return bits.Len(uint(numLabels - 1))
}

// endBitsFor is the bit width of one cumulative tuple count (values 1..d).
func endBitsFor(d int) int {
	if d <= 1 {
		return 1
	}
	return bits.Len(uint(d))
}

// computeLayout validates the header quantities and lays out the sections.
func computeLayout(n, a, d, numLabels, docIDBytes int) (layout, error) {
	switch {
	case n < 0 || n > maxCount:
		return layout{}, fmt.Errorf("succinct: node count %d out of range", n)
	case a < 0 || a > n:
		return layout{}, fmt.Errorf("succinct: %d attached nodes for %d nodes", a, n)
	case d < 0 || d > maxCount:
		return layout{}, fmt.Errorf("succinct: doc tuple count %d out of range", d)
	case d < a:
		return layout{}, fmt.Errorf("succinct: %d doc tuples for %d attached nodes", d, a)
	case (a == 0) != (d == 0):
		return layout{}, fmt.Errorf("succinct: inconsistent attach/tuple counts %d/%d", a, d)
	case docIDBytes < 1 || docIDBytes > 8:
		return layout{}, fmt.Errorf("succinct: unsupported docIDBytes %d", docIDBytes)
	case n > 0 && numLabels < 1:
		return layout{}, fmt.Errorf("succinct: %d nodes but empty catalog", n)
	case numLabels > 0xFFFF:
		return layout{}, fmt.Errorf("succinct: catalog has %d labels, max %d", numLabels, 0xFFFF)
	}
	lay := layout{
		n: n, a: a, d: d,
		labelBits:  labelBitsFor(numLabels),
		endBits:    endBitsFor(d),
		docIDBytes: docIDBytes,
		words:      (2*n + 63) / 64,
		attWords:   (n + 63) / 64,
	}
	lay.supers = (lay.words + superWords - 1) / superWords
	lay.bpOff = headerSize
	lay.dirOff = lay.bpOff + lay.words*8
	lay.superOff = lay.dirOff + lay.words*wordDirEntry
	lay.labOff = lay.superOff + lay.supers*superDirEntry
	lay.attOff = lay.labOff + (n*lay.labelBits+7)/8
	lay.attDirOff = lay.attOff + lay.attWords*8
	lay.endsOff = lay.attDirOff + lay.attWords*attachDirEntry
	lay.docsOff = lay.endsOff + (a*lay.endBits+7)/8
	lay.size = lay.docsOff + d*docIDBytes
	return lay, nil
}

// attachCounts scans the index for the attached-node and doc-tuple totals.
func attachCounts(ix *core.Index) (attached, tuples int) {
	for i := range ix.Nodes {
		if n := len(ix.Nodes[i].Docs); n > 0 {
			attached++
			tuples += n
		}
	}
	return attached, tuples
}

// TierSize reports the exact encoded size in bytes of the index's first
// tier under a numLabels-entry catalog, without encoding it.
func TierSize(ix *core.Index, numLabels int, m core.SizeModel) (int, error) {
	a, d := attachCounts(ix)
	lay, err := computeLayout(len(ix.Nodes), a, d, numLabels, m.DocIDBytes)
	if err != nil {
		return 0, err
	}
	return lay.size, nil
}

// EncodeTier serialises the index's first tier into a fresh buffer.
func EncodeTier(ix *core.Index, cat *wire.Catalog, m core.SizeModel) ([]byte, error) {
	return AppendTier(nil, ix, cat, m)
}

// AppendTier is EncodeTier appending to dst (which may be a pooled buffer)
// and returning the extended slice. The index must be in DFS pre-order
// with every node reachable from Roots (core.Index's invariant).
func AppendTier(dst []byte, ix *core.Index, cat *wire.Catalog, m core.SizeModel) ([]byte, error) {
	n := len(ix.Nodes)
	a, d := attachCounts(ix)
	lay, err := computeLayout(n, a, d, cat.Len(), m.DocIDBytes)
	if err != nil {
		return nil, err
	}
	base := len(dst)
	dst = grow(dst, lay.size)
	out := dst[base:]

	binary.LittleEndian.PutUint32(out[0:], uint32(n))
	binary.LittleEndian.PutUint32(out[4:], uint32(a))
	binary.LittleEndian.PutUint32(out[8:], uint32(d))
	out[12] = byte(lay.labelBits)
	out[13] = byte(lay.docIDBytes)

	if err := appendBP(out, ix, lay); err != nil {
		return nil, err
	}
	for i := range ix.Nodes {
		id, ok := cat.ID(ix.Nodes[i].Label)
		if !ok {
			return nil, fmt.Errorf("succinct: label %q missing from catalog", ix.Nodes[i].Label)
		}
		orBits(out, lay.labOff, i*lay.labelBits, uint64(id))
	}
	docMax := uint64(1)<<(8*minInt(lay.docIDBytes, 8)) - 1
	ai, cum, docPos := 0, 0, lay.docsOff
	for i := range ix.Nodes {
		docs := ix.Nodes[i].Docs
		if len(docs) == 0 {
			continue
		}
		out[lay.attOff+i>>3] |= 1 << (i & 7)
		cum += len(docs)
		orBits(out, lay.endsOff, ai*lay.endBits, uint64(cum))
		ai++
		for _, doc := range docs {
			if uint64(doc) > docMax {
				return nil, fmt.Errorf("succinct: doc ID %d exceeds %d-byte field", doc, lay.docIDBytes)
			}
			v := uint64(doc)
			for b := 0; b < lay.docIDBytes; b++ {
				out[docPos+b] = byte(v >> (8 * b))
			}
			docPos += lay.docIDBytes
		}
	}
	writeDirectories(out, lay)
	writeAttachDir(out, lay)
	return dst, nil
}

// appendBP emits the balanced-parentheses bits via an explicit-stack DFS,
// verifying that pre-order visit order matches node IDs (deep tries must
// not recurse).
func appendBP(out []byte, ix *core.Index, lay layout) error {
	type frame struct {
		id   core.NodeID
		next int
	}
	setOpen := func(bit int) { out[lay.bpOff+bit>>3] |= 1 << (bit & 7) }
	bit, pre := 0, 0
	stack := make([]frame, 0, 64)
	for _, r := range ix.Roots {
		if int(r) != pre {
			return fmt.Errorf("succinct: index not in DFS pre-order at node %d", r)
		}
		pre++
		setOpen(bit)
		bit++
		stack = append(stack, frame{id: r})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			children := ix.Nodes[f.id].Children
			if f.next < len(children) {
				c := children[f.next]
				f.next++
				if int(c) != pre {
					return fmt.Errorf("succinct: index not in DFS pre-order at node %d", c)
				}
				pre++
				setOpen(bit)
				bit++
				stack = append(stack, frame{id: c})
			} else {
				bit++ // close parenthesis: bit stays 0
				stack = stack[:len(stack)-1]
			}
		}
	}
	if pre != len(ix.Nodes) || bit != 2*len(ix.Nodes) {
		return fmt.Errorf("succinct: %d of %d nodes reachable from roots", pre, len(ix.Nodes))
	}
	return nil
}

// writeDirectories fills the per-word and per-superblock BP directories
// from the already-written BP section.
func writeDirectories(out []byte, lay layout) {
	rank := 0
	for w := 0; w < lay.words; w++ {
		word := binary.LittleEndian.Uint64(out[lay.bpOff+8*w:])
		valid := minInt(64, 2*lay.n-64*w)
		entry := out[lay.dirOff+wordDirEntry*w:]
		binary.LittleEndian.PutUint32(entry, uint32(rank))
		entry[4] = byte(int8(wordMinExcess(word, valid)))
		rank += bits.OnesCount64(word)
	}
	for sb := 0; sb < lay.supers; sb++ {
		w0 := sb * superWords
		wEnd := minInt(w0+superWords, lay.words)
		baseRank := int(binary.LittleEndian.Uint32(out[lay.dirOff+wordDirEntry*w0:]))
		baseExc := 2*baseRank - 64*w0
		minExc := 0
		for w := w0; w < wEnd; w++ {
			entry := out[lay.dirOff+wordDirEntry*w:]
			excBefore := 2*int(binary.LittleEndian.Uint32(entry)) - 64*w
			if rel := excBefore + int(int8(entry[4])) - baseExc; w == w0 || rel < minExc {
				minExc = rel
			}
		}
		sentry := out[lay.superOff+superDirEntry*sb:]
		binary.LittleEndian.PutUint32(sentry, uint32(baseRank))
		binary.LittleEndian.PutUint16(sentry[4:], uint16(int16(minExc)))
	}
}

// writeAttachDir fills the attach-bitmap rank directory.
func writeAttachDir(out []byte, lay layout) {
	rank := 0
	for w := 0; w < lay.attWords; w++ {
		binary.LittleEndian.PutUint32(out[lay.attDirOff+attachDirEntry*w:], uint32(rank))
		rank += bits.OnesCount64(binary.LittleEndian.Uint64(out[lay.attOff+8*w:]))
	}
}

// wordMinExcess is the minimum running excess over the first valid bits of
// word, relative to the excess at the word start.
func wordMinExcess(word uint64, valid int) int {
	exc, minExc := 0, 0
	for b := 0; b < valid; b++ {
		if word>>uint(b)&1 == 1 {
			exc++
		} else {
			exc--
		}
		if b == 0 || exc < minExc {
			minExc = exc
		}
	}
	return minExc
}

// orBits ORs v into the bitvector at section byte offset base, bit index
// bitIdx. v must fit the caller's field width; widths stay ≤ 32 bits so a
// shifted value spans at most five bytes.
func orBits(out []byte, base, bitIdx int, v uint64) {
	v <<= uint(bitIdx & 7)
	b := base + bitIdx>>3
	for v != 0 {
		out[b] |= byte(v)
		v >>= 8
		b++
	}
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

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
