// Package core implements the paper's contribution: the Compact Index (CI)
// over a merged DataGuide, query-set pruning into the PCI, depth-first greedy
// packet packing, the two-tier split of document pointers, and client-style
// index lookup with packet-level cost accounting.
//
// Sizes are governed by a SizeModel whose widths also drive the binary wire
// encoding (package wire), so analytic figures, simulated tuning times and
// decodable bytes all agree.
package core

import "fmt"

// Tier selects the physical layout of the index tree.
type Tier int

const (
	// OneTier embeds (docID, offset) pairs in every node — the flat
	// baseline structure of §3.1–3.2.
	OneTier Tier = iota + 1
	// FirstTier keeps only docIDs in nodes; offsets move to the per-cycle
	// second-tier list — the paper's two-tier structure (§3.3).
	FirstTier
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case OneTier:
		return "one-tier"
	case FirstTier:
		return "first-tier"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// SizeModel fixes the on-air width of every index field, following §3.1
// (node layout) and §4.1 (experimental setup: 2-byte document IDs, 4-byte
// pointers, 128-byte packets).
type SizeModel struct {
	// FlagBytes is the per-node flag block.
	FlagBytes int
	// EntryLabelBytes is the width of one child entry's label identifier.
	EntryLabelBytes int
	// PointerBytes is the width of a child pointer (byte offset within the
	// index) and of a document offset pointer (byte offset within a cycle).
	PointerBytes int
	// DocIDBytes is the width of a document identifier.
	DocIDBytes int
	// PacketBytes is the fixed broadcast packet size.
	PacketBytes int
}

// DefaultSizeModel returns the paper's experimental widths.
func DefaultSizeModel() SizeModel {
	return SizeModel{
		FlagBytes:       2,
		EntryLabelBytes: 4,
		PointerBytes:    4,
		DocIDBytes:      2,
		PacketBytes:     128,
	}
}

// Validate reports whether every width is positive.
func (m SizeModel) Validate() error {
	if m.FlagBytes <= 0 || m.EntryLabelBytes <= 0 || m.PointerBytes <= 0 ||
		m.DocIDBytes <= 0 || m.PacketBytes <= 0 {
		return fmt.Errorf("core: SizeModel fields must all be positive: %+v", m)
	}
	return nil
}

// EntryBytes is the width of one <entry, pointer> child tuple.
func (m SizeModel) EntryBytes() int { return m.EntryLabelBytes + m.PointerBytes }

// DocTupleBytes is the width of one per-node document tuple under the given
// tier: (docID, offset) one-tier, docID alone in the first tier.
func (m SizeModel) DocTupleBytes(t Tier) int {
	if t == FirstTier {
		return m.DocIDBytes
	}
	return m.DocIDBytes + m.PointerBytes
}

// FlagCountMax is the largest child or document count a node's flag block
// holds in place. A count at or above it is escaped: the flag block holds
// FlagCountMax and the explicit count follows it, EntryLabelBytes wide for
// children and DocIDBytes wide for documents (package wire).
func (m SizeModel) FlagCountMax() int { return 1<<((m.FlagBytes*8-2)/2) - 1 }

// SecondTierEntryBytes is the width of one (docID, offset) entry in the
// second-tier list.
func (m SizeModel) SecondTierEntryBytes() int { return m.DocIDBytes + m.PointerBytes }

// IndexEncoding selects the on-air byte layout of the first tier. The
// zero value is the node-pointer layout, so existing configurations and
// captures are unaffected by the knob.
type IndexEncoding int

const (
	// EncodingNode is the paper's per-node layout: flag block plus
	// <entry, pointer> and document tuples (package wire).
	EncodingNode IndexEncoding = iota
	// EncodingSuccinct is the balanced-parentheses layout: 2-bit
	// topology, bit-packed label IDs and a rank-indexed attachment
	// bitmap (package succinct). Two-tier only.
	EncodingSuccinct
)

// String names the encoding.
func (e IndexEncoding) String() string {
	switch e {
	case EncodingNode:
		return "node"
	case EncodingSuccinct:
		return "succinct"
	default:
		return fmt.Sprintf("IndexEncoding(%d)", int(e))
	}
}

// MarshalText is String as text, so an IndexEncoding can back a flag
// (flag.TextVar).
func (e IndexEncoding) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText parses an encoding name, the inverse of String; the empty
// string means the default node layout.
func (e *IndexEncoding) UnmarshalText(b []byte) error {
	switch string(b) {
	case "", "node":
		*e = EncodingNode
	case "succinct":
		*e = EncodingSuccinct
	default:
		return fmt.Errorf("core: unknown index encoding %q (want node or succinct)", b)
	}
	return nil
}

// NodeKind classifies index nodes, mirroring the paper's flag block: a root,
// an internal node, or a leaf.
type NodeKind int

const (
	// KindRoot is a tree root node.
	KindRoot NodeKind = iota + 1
	// KindInternal has children (and possibly document tuples).
	KindInternal
	// KindLeaf has only document tuples.
	KindLeaf
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindInternal:
		return "internal"
	case KindLeaf:
		return "leaf"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}
