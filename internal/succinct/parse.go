package succinct

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmldoc"
)

// Tier is a parsed succinct first tier: a validated view over the raw
// encoded bytes. Parsing builds no per-node structures — navigation reads
// the byte stream (and its on-air directories) in place, which is what
// keeps the client hot path materialization-free.
type Tier struct {
	data []byte
	m    core.SizeModel
	cat  *wire.Catalog
	lay  layout
}

// Parse validates an encoded first tier against the size model and label
// catalog it was encoded under. Every section is checked — balanced
// parentheses, in-range label IDs, truthful rank/excess directories,
// monotone tuple ranges, canonical padding — so hostile bytes error here
// rather than corrupting navigation. The data slice is retained.
func Parse(data []byte, m core.SizeModel, cat *wire.Catalog) (*Tier, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("succinct: tier truncated: %d bytes", len(data))
	}
	n := int(binary.LittleEndian.Uint32(data[0:]))
	a := int(binary.LittleEndian.Uint32(data[4:]))
	d := int(binary.LittleEndian.Uint32(data[8:]))
	lay, err := computeLayout(n, a, d, cat.Len(), m.DocIDBytes)
	if err != nil {
		return nil, err
	}
	if int(data[12]) != lay.labelBits {
		return nil, fmt.Errorf("succinct: labelBits %d, catalog needs %d", data[12], lay.labelBits)
	}
	if int(data[13]) != lay.docIDBytes {
		return nil, fmt.Errorf("succinct: docIDBytes %d, model has %d", data[13], lay.docIDBytes)
	}
	if len(data) != lay.size {
		return nil, fmt.Errorf("succinct: tier is %d bytes, layout needs %d", len(data), lay.size)
	}
	t := &Tier{data: data, m: m, cat: cat, lay: lay}
	if err := t.validateBP(); err != nil {
		return nil, err
	}
	if err := t.validateLabels(); err != nil {
		return nil, err
	}
	if err := t.validateAttach(); err != nil {
		return nil, err
	}
	if err := t.validateDocs(); err != nil {
		return nil, err
	}
	return t, nil
}

// validateBP checks the parenthesis sequence is a balanced forest with n
// opens, padding bits are zero, and both directory levels match the data.
func (t *Tier) validateBP() error {
	lay := t.lay
	rank, exc := 0, 0
	for w := 0; w < lay.words; w++ {
		word := binary.LittleEndian.Uint64(t.data[lay.bpOff+8*w:])
		valid := minInt(64, 2*lay.n-64*w)
		if valid < 64 && word>>uint(valid) != 0 {
			return fmt.Errorf("succinct: nonzero BP padding in word %d", w)
		}
		entry := t.data[lay.dirOff+wordDirEntry*w:]
		if int(binary.LittleEndian.Uint32(entry)) != rank {
			return fmt.Errorf("succinct: BP rank directory mismatch at word %d", w)
		}
		if int(int8(entry[4])) != wordMinExcess(word, valid) {
			return fmt.Errorf("succinct: BP excess directory mismatch at word %d", w)
		}
		if exc+wordMinExcess(word, valid) < 0 {
			return fmt.Errorf("succinct: unbalanced parentheses in word %d", w)
		}
		opens := bits.OnesCount64(word)
		rank += opens
		exc += 2*opens - valid
	}
	if rank != lay.n || exc != 0 {
		return fmt.Errorf("succinct: parentheses encode %d opens, excess %d (want %d, 0)", rank, exc, lay.n)
	}
	for sb := 0; sb < lay.supers; sb++ {
		w0 := sb * superWords
		wEnd := minInt(w0+superWords, lay.words)
		baseRank := int(binary.LittleEndian.Uint32(t.data[lay.dirOff+wordDirEntry*w0:]))
		baseExc := 2*baseRank - 64*w0
		minExc := 0
		for w := w0; w < wEnd; w++ {
			entry := t.data[lay.dirOff+wordDirEntry*w:]
			excBefore := 2*int(binary.LittleEndian.Uint32(entry)) - 64*w
			if rel := excBefore + int(int8(entry[4])) - baseExc; w == w0 || rel < minExc {
				minExc = rel
			}
		}
		sentry := t.data[lay.superOff+superDirEntry*sb:]
		if int(binary.LittleEndian.Uint32(sentry)) != baseRank ||
			int(int16(binary.LittleEndian.Uint16(sentry[4:]))) != minExc {
			return fmt.Errorf("succinct: BP superblock directory mismatch at %d", sb)
		}
	}
	return nil
}

// validateLabels checks every label ID resolves in the catalog and the
// section's trailing padding bits are zero.
func (t *Tier) validateLabels() error {
	lay := t.lay
	for i := 0; i < lay.n; i++ {
		if id := t.getBits(lay.labOff, i*lay.labelBits, lay.labelBits, nil); id >= uint64(t.cat.Len()) {
			return fmt.Errorf("succinct: node %d has out-of-range label id %d", i, id)
		}
	}
	return t.checkBitPadding(lay.labOff, lay.n*lay.labelBits, lay.attOff, "label")
}

// validateAttach checks the attachment bitmap has exactly a set bits, zero
// padding, and a truthful rank directory.
func (t *Tier) validateAttach() error {
	lay := t.lay
	rank := 0
	for w := 0; w < lay.attWords; w++ {
		word := binary.LittleEndian.Uint64(t.data[lay.attOff+8*w:])
		valid := minInt(64, lay.n-64*w)
		if valid < 64 && word>>uint(valid) != 0 {
			return fmt.Errorf("succinct: nonzero attach padding in word %d", w)
		}
		if int(binary.LittleEndian.Uint32(t.data[lay.attDirOff+attachDirEntry*w:])) != rank {
			return fmt.Errorf("succinct: attach rank directory mismatch at word %d", w)
		}
		rank += bits.OnesCount64(word)
	}
	if rank != lay.a {
		return fmt.Errorf("succinct: attach bitmap has %d set bits, header claims %d", rank, lay.a)
	}
	return nil
}

// validateDocs checks the cumulative ends are strictly increasing up to d,
// their padding is zero, and each node's tuple group is strictly sorted
// with IDs that fit xmldoc.DocID.
func (t *Tier) validateDocs() error {
	lay := t.lay
	prev := uint64(0)
	for k := 0; k < lay.a; k++ {
		end := t.getBits(lay.endsOff, k*lay.endBits, lay.endBits, nil)
		if end <= prev || end > uint64(lay.d) {
			return fmt.Errorf("succinct: tuple range ends not strictly increasing at %d", k)
		}
		prev = end
	}
	if lay.a > 0 && prev != uint64(lay.d) {
		return fmt.Errorf("succinct: tuple ranges cover %d of %d tuples", prev, lay.d)
	}
	if err := t.checkBitPadding(lay.endsOff, lay.a*lay.endBits, lay.docsOff, "ends"); err != nil {
		return err
	}
	start := uint64(0)
	for k := 0; k < lay.a; k++ {
		end := t.getBits(lay.endsOff, k*lay.endBits, lay.endBits, nil)
		var prevDoc uint64
		for p := start; p < end; p++ {
			v := t.docValue(int(p), nil)
			if v > uint64(^xmldoc.DocID(0)) {
				return fmt.Errorf("succinct: doc ID %d exceeds DocID range", v)
			}
			if p > start && v <= prevDoc {
				return fmt.Errorf("succinct: tuple group %d not sorted", k)
			}
			prevDoc = v
		}
		start = end
	}
	return nil
}

// checkBitPadding verifies the bits between bit index used (relative to
// section offset off) and the next section at end are all zero.
func (t *Tier) checkBitPadding(off, used, end int, what string) error {
	bytePos := off + used>>3
	if rem := used & 7; rem != 0 {
		if t.data[bytePos]>>uint(rem) != 0 {
			return fmt.Errorf("succinct: nonzero %s padding", what)
		}
		bytePos++
	}
	for ; bytePos < end; bytePos++ {
		if t.data[bytePos] != 0 {
			return fmt.Errorf("succinct: nonzero %s padding", what)
		}
	}
	return nil
}

// NumNodes reports the node count.
func (t *Tier) NumNodes() int { return t.lay.n }

// Size reports the encoded tier length in bytes.
func (t *Tier) Size() int { return len(t.data) }

// Model returns the size model the tier was parsed under.
func (t *Tier) Model() core.SizeModel { return t.m }

// pageSet tracks which packet-sized pages of the tier a navigation
// touched; nil receivers are no-ops so pure (unaccounted) ops share the
// same read helpers.
type pageSet struct {
	pageBytes int
	words     []uint64
}

func (p *pageSet) reset(size, pageBytes int) {
	pages := (size + pageBytes - 1) / pageBytes
	need := (pages + 63) / 64
	if cap(p.words) < need {
		p.words = make([]uint64, need)
	} else {
		p.words = p.words[:need]
		clear(p.words)
	}
	p.pageBytes = pageBytes
}

// mark records the byte range [start, end) as read.
func (p *pageSet) mark(start, end int) {
	if p == nil || end <= start {
		return
	}
	first, last := start/p.pageBytes, (end-1)/p.pageBytes
	for pg := first; pg <= last; pg++ {
		p.words[pg>>6] |= 1 << (pg & 63)
	}
}

// count reports the number of distinct pages marked.
func (p *pageSet) count() int {
	total := 0
	for _, w := range p.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// loadWord reads up to eight bytes of data at off, little-endian,
// zero-extending past the end of the slice.
func loadWord(data []byte, off int) uint64 {
	if off+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[off:])
	}
	var v uint64
	for i := 0; off+i < len(data); i++ {
		v |= uint64(data[off+i]) << (8 * i)
	}
	return v
}

// getBits extracts the width-bit field at bit index bitIdx of the section
// at byte offset base (width ≤ 32, so one word load suffices).
func (t *Tier) getBits(base, bitIdx, width int, pg *pageSet) uint64 {
	b := base + bitIdx>>3
	pg.mark(b, b+(bitIdx&7+width+7)/8)
	return loadWord(t.data, b) >> uint(bitIdx&7) & (1<<uint(width) - 1)
}

// bpWord reads BP word w.
func (t *Tier) bpWord(w int, pg *pageSet) uint64 {
	off := t.lay.bpOff + 8*w
	pg.mark(off, off+8)
	return binary.LittleEndian.Uint64(t.data[off:])
}

// dirEntry reads BP word w's directory entry: rank1 before the word and
// the word's minimum relative prefix excess.
func (t *Tier) dirEntry(w int, pg *pageSet) (rank, minExc int) {
	off := t.lay.dirOff + wordDirEntry*w
	pg.mark(off, off+wordDirEntry)
	return int(binary.LittleEndian.Uint32(t.data[off:])), int(int8(t.data[off+4]))
}

// superEntry reads superblock sb's directory entry.
func (t *Tier) superEntry(sb int, pg *pageSet) (rank, minExc int) {
	off := t.lay.superOff + superDirEntry*sb
	pg.mark(off, off+superDirEntry)
	return int(binary.LittleEndian.Uint32(t.data[off:])),
		int(int16(binary.LittleEndian.Uint16(t.data[off+4:])))
}

// isOpen reports whether BP bit pos is an open parenthesis.
func (t *Tier) isOpen(pos int, pg *pageSet) bool {
	off := t.lay.bpOff + pos>>3
	pg.mark(off, off+1)
	return t.data[off]>>uint(pos&7)&1 == 1
}

// rank1 counts open parentheses strictly before BP bit pos; for an open
// at pos this is the node's pre-order ID.
func (t *Tier) rank1(pos int, pg *pageSet) int {
	w := pos >> 6
	rank, _ := t.dirEntry(w, pg)
	return rank + bits.OnesCount64(t.bpWord(w, pg)&(1<<uint(pos&63)-1))
}

// excessBefore is the parenthesis excess (opens − closes) of bits [0, pos).
func (t *Tier) excessBefore(pos int, pg *pageSet) int {
	w := pos >> 6
	rank, _ := t.dirEntry(w, pg)
	within := pos & 63
	opens := bits.OnesCount64(t.bpWord(w, pg) & (1<<uint(within) - 1))
	return 2*(rank+opens) - pos
}

// findClose returns the position of the close parenthesis matching the
// open at pos, skipping whole words and superblocks via the excess
// directories. Returns -1 only on malformed input (excluded by Parse).
func (t *Tier) findClose(pos int, pg *pageSet) int {
	lay := t.lay
	nbits := 2 * lay.n
	w := pos >> 6
	word := t.bpWord(w, pg)
	target := t.excessBefore(pos, pg) // matching close brings excess back here
	exc := target + 1
	valid := minInt(64, nbits-64*w)
	for b := pos&63 + 1; b < valid; b++ {
		if word>>uint(b)&1 == 1 {
			exc++
		} else {
			exc--
		}
		if exc == target {
			return 64*w + b
		}
	}
	for w++; w < lay.words; {
		if w&(superWords-1) == 0 {
			sb := w / superWords
			sRank, sMin := t.superEntry(sb, pg)
			if 2*sRank-64*w+sMin > target {
				w += superWords // the whole superblock stays above target
				continue
			}
		}
		rank, wMin := t.dirEntry(w, pg)
		if excBefore := 2*rank - 64*w; excBefore+wMin <= target {
			word = t.bpWord(w, pg)
			exc = excBefore
			valid = minInt(64, nbits-64*w)
			for b := 0; b < valid; b++ {
				if word>>uint(b)&1 == 1 {
					exc++
				} else {
					exc--
				}
				if exc == target {
					return 64*w + b
				}
			}
			return -1
		}
		w++
	}
	return -1
}

// FindClose is the unaccounted form of findClose: the matching close of
// the open parenthesis at pos.
func (t *Tier) FindClose(pos int) int { return t.findClose(pos, nil) }

// FirstChild returns the open position of the first child of the node
// opened at pos, or -1 for a leaf.
func (t *Tier) FirstChild(pos int) int { return t.firstChild(pos, nil) }

func (t *Tier) firstChild(pos int, pg *pageSet) int {
	c := pos + 1
	if c < 2*t.lay.n && t.isOpen(c, pg) {
		return c
	}
	return -1
}

// NextSibling returns the open position of the next sibling of the node
// opened at pos, or -1 if it is the last child (or last root).
func (t *Tier) NextSibling(pos int) int { return t.nextSibling(pos, nil) }

func (t *Tier) nextSibling(pos int, pg *pageSet) int {
	j := t.findClose(pos, pg) + 1
	if j > 0 && j < 2*t.lay.n && t.isOpen(j, pg) {
		return j
	}
	return -1
}

// Parent returns the open position of the parent of the node opened at
// pos, or -1 for a root.
func (t *Tier) Parent(pos int) int { return t.parent(pos, nil) }

func (t *Tier) parent(pos int, pg *pageSet) int {
	target := t.excessBefore(pos, pg)
	if target == 0 {
		return -1
	}
	cur := target // excess at pos-1 equals excess before pos
	w := (pos - 1) >> 6
	word := t.bpWord(w, pg)
	for j := pos - 1; j >= 0; j-- {
		if j>>6 != w {
			w = j >> 6
			word = t.bpWord(w, pg)
		}
		if word>>uint(j&63)&1 == 1 {
			if cur == target {
				return j
			}
			cur--
		} else {
			cur++
		}
	}
	return -1
}

// NodeID is the pre-order ID of the node opened at pos.
func (t *Tier) NodeID(pos int) core.NodeID { return core.NodeID(t.rank1(pos, nil)) }

// Label resolves node id's label through the catalog.
func (t *Tier) Label(id core.NodeID) string { return t.label(int(id), nil) }

func (t *Tier) label(id int, pg *pageSet) string {
	v := t.getBits(t.lay.labOff, id*t.lay.labelBits, t.lay.labelBits, pg)
	s, _ := t.cat.Label(uint32(v)) // in range: validated at Parse
	return s
}

// attachRank counts attached nodes with pre-order ID < id.
func (t *Tier) attachRank(id int, pg *pageSet) int {
	if id >= t.lay.n {
		return t.lay.a
	}
	w := id >> 6
	off := t.lay.attDirOff + attachDirEntry*w
	pg.mark(off, off+attachDirEntry)
	rank := int(binary.LittleEndian.Uint32(t.data[off:]))
	wOff := t.lay.attOff + 8*w
	pg.mark(wOff, wOff+8)
	word := binary.LittleEndian.Uint64(t.data[wOff:])
	return rank + bits.OnesCount64(word&(1<<uint(id&63)-1))
}

// endValue is the cumulative tuple count at attached-node index k.
func (t *Tier) endValue(k int, pg *pageSet) int {
	return int(t.getBits(t.lay.endsOff, k*t.lay.endBits, t.lay.endBits, pg))
}

// docValue is the p-th document ID in the tuple array.
func (t *Tier) docValue(p int, pg *pageSet) uint64 {
	off := t.lay.docsOff + p*t.lay.docIDBytes
	pg.mark(off, off+t.lay.docIDBytes)
	var v uint64
	for i := 0; i < t.lay.docIDBytes; i++ {
		v |= uint64(t.data[off+i]) << (8 * i)
	}
	return v
}

// appendSubtreeDocs appends the document tuples of the pre-order ID range
// [idStart, idEnd) — a subtree in DFS layout — to dst.
func (t *Tier) appendSubtreeDocs(dst []xmldoc.DocID, idStart, idEnd int, pg *pageSet) []xmldoc.DocID {
	aStart := t.attachRank(idStart, pg)
	aEnd := t.attachRank(idEnd, pg)
	if aStart == aEnd {
		return dst
	}
	lo := 0
	if aStart > 0 {
		lo = t.endValue(aStart-1, pg)
	}
	hi := t.endValue(aEnd-1, pg)
	if lo < hi { // mark the tuple range once, then read it
		off := t.lay.docsOff
		pg.mark(off+lo*t.lay.docIDBytes, off+hi*t.lay.docIDBytes)
	}
	for p := lo; p < hi; p++ {
		dst = append(dst, xmldoc.DocID(t.docValue(p, nil)))
	}
	return dst
}
