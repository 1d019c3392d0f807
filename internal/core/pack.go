package core

import "fmt"

// PackOrder selects the order in which nodes are laid out on air.
type PackOrder int

const (
	// PackDFS is the paper's depth-first order (§3.1): a match node's
	// subtree is contiguous, so subtree collection touches few packets.
	PackDFS PackOrder = iota + 1
	// PackBFS is a breadth-first alternative used by the packing-order
	// ablation: siblings are adjacent but subtrees scatter.
	PackBFS
)

// String names the order.
func (o PackOrder) String() string {
	switch o {
	case PackDFS:
		return "dfs"
	case PackBFS:
		return "bfs"
	default:
		return fmt.Sprintf("PackOrder(%d)", int(o))
	}
}

// Packing is the physical packet layout of an index under one tier: nodes in
// depth-first order, greedily packed into fixed-size packets (§3.1, Fig. 5).
// A node that does not fit in the current packet's free space starts a new
// packet; a node larger than a whole packet streams across consecutive
// packets.
type Packing struct {
	// Tier is the layout the packing was computed for.
	Tier Tier
	// Order is the node layout order.
	Order PackOrder
	// Model fixes widths, copied from the index.
	Model SizeModel
	// NodeOffsets[i] is the byte offset of node i in the index stream.
	NodeOffsets []int
	// NodeSizes[i] is the byte size of node i under the tier.
	NodeSizes []int
	// StreamBytes is the total stream length including alignment padding.
	StreamBytes int
	// NumPackets is the packet count, ceil(StreamBytes / PacketBytes).
	NumPackets int
	// FlagCountBits is the per-count bit width of the node flag block
	// ((FlagBytes*8 − 2) / 2), precomputed here so steady-state encoders
	// do not re-derive the flag layout every cycle; 0 when FlagBytes is
	// too small to encode node headers.
	FlagCountBits int
}

// Pack lays the index out on air under the given tier in the paper's
// depth-first order.
func (ix *Index) Pack(t Tier) *Packing {
	return ix.PackOrdered(t, PackDFS)
}

// PackOrdered lays the index out under an explicit node order; PackDFS is
// the paper's design, PackBFS exists for the packing-order ablation.
func (ix *Index) PackOrdered(t Tier, order PackOrder) *Packing {
	p := &Packing{
		Tier:        t,
		Order:       order,
		Model:       ix.Model,
		NodeOffsets: make([]int, len(ix.Nodes)),
		NodeSizes:   make([]int, len(ix.Nodes)),
	}
	if bits := ix.Model.FlagBytes*8 - 2; bits >= 2 {
		p.FlagCountBits = bits / 2
	}
	pb := ix.Model.PacketBytes
	offset := 0
	for _, id := range ix.layoutOrder(order) {
		size := ix.Nodes[id].Size(ix.Model, t)
		if size <= pb {
			if rem := pb - offset%pb; rem < size && rem < pb {
				offset += rem // start a fresh packet
			}
		}
		p.NodeOffsets[id] = offset
		p.NodeSizes[id] = size
		offset += size
	}
	p.StreamBytes = offset
	p.NumPackets = (offset + pb - 1) / pb
	return p
}

// layoutOrder returns node IDs in the requested layout order. Nodes are
// stored in DFS pre-order, so PackDFS is the identity.
func (ix *Index) layoutOrder(order PackOrder) []NodeID {
	ids := make([]NodeID, 0, len(ix.Nodes))
	switch order {
	case PackBFS:
		queue := append([]NodeID(nil), ix.Roots...)
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			ids = append(ids, id)
			queue = append(queue, ix.Nodes[id].Children...)
		}
	default: // PackDFS
		for i := range ix.Nodes {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// PacketRange reports the first and last packet (inclusive) occupied by the
// node.
func (p *Packing) PacketRange(id NodeID) (first, last int) {
	pb := p.Model.PacketBytes
	start := p.NodeOffsets[id]
	end := start + p.NodeSizes[id]
	if end > start {
		end--
	}
	return start / pb, end / pb
}

// PacketsFor counts the distinct packets covering the given nodes — the
// client's tuning cost for reading them, in packets. Node offsets need not
// grow with node ID (PackBFS), so packets are counted in a bitset.
func (p *Packing) PacketsFor(nodes []NodeID) int {
	if len(nodes) == 0 {
		return 0
	}
	// One bit per packet; the spare covers an empty node at the stream's end.
	seen := make([]uint64, p.NumPackets/64+1)
	n := 0
	for _, id := range nodes {
		first, last := p.PacketRange(id)
		for pk := first; pk <= last; pk++ {
			if w, b := pk/64, uint64(1)<<(pk%64); seen[w]&b == 0 {
				seen[w] |= b
				n++
			}
		}
	}
	return n
}

// BytesFor is PacketsFor expressed in bytes (packets × packet size): data
// retrieval is in whole-packet units.
func (p *Packing) BytesFor(nodes []NodeID) int {
	return p.PacketsFor(nodes) * p.Model.PacketBytes
}

// AirBytes is the total on-air size of the packed index in bytes, i.e.
// packets × packet size.
func (p *Packing) AirBytes() int {
	return p.NumPackets * p.Model.PacketBytes
}
