// Package broadcast assembles broadcast cycles: the per-cycle air index
// (PCI), the second-tier offset list under the two-tier organisation, and the
// scheduled documents, following the program layout of §3.4 (Fig. 8):
//
//	one-tier:  [head][one-tier index with embedded offsets][documents]
//	two-tier:  [head][first-tier index][second-tier offsets][documents]
//
// The head (wire.CycleHead) carries the cycle number, the organisation, the
// document count, the root labels and the label catalog. All segment sizes
// are real encodable bytes (package wire), so the simulator's byte clock
// matches what a receiver would download.
//
// With K > 1 channels the two tiers split across parallel streams sharing the
// aggregate bandwidth (each channel runs at 1/K of it):
//
//	channel 0 (index):   [head][channel directory][first-tier index]
//	channel 1..K-1:      [second-tier offsets][documents]   (striped)
//
// The channel directory tags every scheduled doc ID with its carrying channel
// and byte offset within that channel's stream, so a single-tuner client
// makes one short index-channel read per cycle and then hops to each data
// channel just in time. Multichannel layout requires TwoTierMode — the
// one-tier index embeds offsets that are only meaningful in a serial stream.
package broadcast

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/schedule"
	"repro/internal/succinct"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Mode selects the index organisation of the broadcast program.
type Mode int

const (
	// OneTierMode embeds document offsets in the index nodes.
	OneTierMode Mode = iota + 1
	// TwoTierMode splits offsets into the second tier (the contribution).
	TwoTierMode
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case OneTierMode:
		return "one-tier"
	case TwoTierMode:
		return "two-tier"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MarshalText is String as text, so a Mode can back a flag (flag.TextVar).
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a mode name, the inverse of String.
func (m *Mode) UnmarshalText(b []byte) error {
	for _, v := range []Mode{OneTierMode, TwoTierMode} {
		if string(b) == v.String() {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("broadcast: unknown mode %q (want one-tier or two-tier)", b)
}

// DocPlacement locates one document inside a cycle's document section.
type DocPlacement struct {
	ID xmldoc.DocID
	// Offset is the byte offset within the document section (with K > 1
	// channels: within the carrying channel's document section).
	Offset int
	// Size is the document's serialised size.
	Size int
	// Channel is the broadcast channel carrying the document: 0 in
	// single-channel layout, 1..K-1 (a data channel) otherwise.
	Channel int
}

// ChannelRole distinguishes the index channel from the data channels.
type ChannelRole uint8

const (
	// IndexChannelRole carries the cycle head, channel directory and the
	// replicated first tier.
	IndexChannelRole ChannelRole = iota
	// DataChannelRole carries a second-tier stripe and its documents.
	DataChannelRole
)

// String names the role.
func (r ChannelRole) String() string {
	switch r {
	case IndexChannelRole:
		return "index"
	case DataChannelRole:
		return "data"
	default:
		return fmt.Sprintf("ChannelRole(%d)", int(r))
	}
}

// ChannelLayout is one channel's share of a multichannel cycle.
type ChannelLayout struct {
	// ID is the channel index (0 = index channel).
	ID int
	// Role is the channel's function.
	Role ChannelRole
	// SecondTierBytes is the channel's second-tier stripe size (data
	// channels only).
	SecondTierBytes int
	// DocBytes is the channel's document-section size (data channels only).
	DocBytes int
	// Bytes is the channel's total payload this cycle: head + directory +
	// index on the index channel, second tier + documents on data channels.
	Bytes int
	// Docs are the documents carried by this channel, in broadcast order,
	// with Offset relative to the channel's document section. Nil on the
	// index channel.
	Docs []DocPlacement
}

// Cycle is one fully laid-out broadcast cycle plus the pipeline inputs it was
// planned from. It is the single plan type shared by the assembly engine, the
// discrete-event simulator and the networked server.
type Cycle struct {
	// Number is the cycle's sequence number, starting at 0.
	Number int64
	// Start is the absolute byte-time at which the cycle begins.
	Start int64
	// Mode is the index organisation.
	Mode Mode
	// Encoding is the first tier's wire layout (node pointers or the
	// succinct balanced-parentheses form).
	Encoding core.IndexEncoding

	// Index is the pruned index broadcast this cycle (first tier in
	// two-tier mode, the full one-tier index otherwise).
	Index *core.Index
	// Packing is the index's packet layout.
	Packing *core.Packing
	// Catalog is the label dictionary for the index.
	Catalog *wire.Catalog

	// Head is the cycle head as it airs: cycle number, organisation,
	// document count, root labels and the encoded catalog.
	Head wire.CycleHead
	// HeadBytes is the head's encoded size.
	HeadBytes int
	// IndexBytes is the on-air size of the packed index (L_I).
	IndexBytes int
	// TierBytes is the raw byte length of the succinct tier blob; zero
	// under node encoding (where the stream length lives in Packing).
	TierBytes int
	// SecondTierBytes is the size of the offset list (L_O); zero in
	// one-tier mode. With K > 1 channels it is the sum of the per-channel
	// stripes.
	SecondTierBytes int
	// DirBytes is the size of the channel directory; zero in
	// single-channel layout.
	DirBytes int
	// DocBytes is the size of the document section (L_D), summed across
	// channels when K > 1.
	DocBytes int

	// Docs are the scheduled documents in broadcast order.
	Docs []DocPlacement

	// HotDocs is the index channel's replication set (multichannel cycles
	// only): a prefix of the plan in delivery order — the most-demanded
	// documents under the on-demand policies — appended to the channel's
	// repetition unit, [head][directory][first tier][hot docs], and re-aired
	// with it through the cycle's slack. Offset is the byte offset within the
	// unit's hot section, Channel is 0. Replication is air-time only: the
	// wire stream carries each hot document once, on its data channel, where
	// it also airs normally.
	HotDocs []DocPlacement
	// HotBytes is the byte length of the repetition unit's hot section.
	HotBytes int

	// Channels is the per-channel layout; nil in single-channel cycles.
	Channels []ChannelLayout
}

// IndexStreamBytes is the byte length of the cycle's index segment in the
// wire stream: the packed node stream under node encoding, the succinct
// tier blob otherwise. Encoders and decoders slice the cycle's data apart
// at this boundary.
func (c *Cycle) IndexStreamBytes() int {
	if c.Encoding == core.EncodingSuccinct {
		return c.TierBytes
	}
	return c.Packing.StreamBytes
}

// TotalBytes is the cycle's aggregate payload across all channels.
func (c *Cycle) TotalBytes() int {
	return c.HeadBytes + c.IndexBytes + c.DirBytes + c.SecondTierBytes + c.DocBytes
}

// ChannelCount reports how many parallel channels the cycle occupies.
func (c *Cycle) ChannelCount() int {
	if len(c.Channels) == 0 {
		return 1
	}
	return len(c.Channels)
}

// channelLead is the guard prefix of a multichannel cycle, in channel bytes:
// data channels stay idle while the index channel airs [head][directory], so
// every listening client holds the full placement map before the first
// document byte airs (no placement can be missed by a returning client).
func (c *Cycle) channelLead() int { return c.HeadBytes + c.DirBytes }

// Duration is the cycle's on-air length in aggregate byte-time. Each of K
// channels runs at 1/K of the aggregate bandwidth, so one channel byte costs
// K byte-ticks; after the guard prefix the cycle lasts until its slowest
// channel drains (the first tier on channel 0, the heaviest stripe
// otherwise). Single-channel cycles last exactly TotalBytes.
func (c *Cycle) Duration() int64 {
	if len(c.Channels) == 0 {
		return int64(c.TotalBytes())
	}
	return int64(len(c.Channels)) * int64(c.channelLead()+c.maxTail())
}

// maxTail is the heaviest channel payload past the guard prefix, in channel
// bytes: the first tier on channel 0, or the heaviest data stripe.
func (c *Cycle) maxTail() int {
	t := c.IndexBytes
	for i := 1; i < len(c.Channels); i++ {
		if c.Channels[i].Bytes > t {
			t = c.Channels[i].Bytes
		}
	}
	return t
}

// indexUnit is the index channel's repetition unit in channel bytes:
// [head][directory][first tier][hot docs].
func (c *Cycle) indexUnit() int {
	return c.channelLead() + c.IndexBytes + c.HotBytes
}

// IndexRepetitions is the number of complete copies of the index channel's
// repetition unit — [head][directory][first tier][hot docs] — aired per
// multichannel cycle. The cycle lasts until its slowest channel drains;
// instead of idling through that slack, channel 0 re-airs the unit back to
// back, so a client tuning in mid-cycle syncs at the next repetition instead
// of waiting for the next cycle (the "fast initial probe" a dedicated index
// channel buys) and finds the hottest documents right behind the tier. The
// wire stream carries one copy — repetitions, like channel padding, exist
// only in the air-time model (a reliable transport never re-sends them).
// Single-channel cycles air the index exactly once.
func (c *Cycle) IndexRepetitions() int {
	if len(c.Channels) <= 1 {
		return 1
	}
	unit := c.indexUnit()
	if unit <= 0 {
		return 1
	}
	if r := (c.channelLead() + c.maxTail()) / unit; r > 1 {
		return r
	}
	return 1
}

// ChannelRepetitions is the number of complete copies of a channel's payload
// unit aired per multichannel cycle. Like the index channel (whose unit is
// [head][directory][first tier]), a data channel lighter than the cycle's
// heaviest replays its [second-tier stripe][documents] unit back to back
// through the slack instead of idling — the broadcast-disk effect: documents
// striped onto a light channel repeat several times per cycle, cutting the
// expected wait for the skewed hot set far below one cycle. Repetitions are
// air-time only; the wire stream carries one copy per cycle.
func (c *Cycle) ChannelRepetitions(ch int) int {
	if len(c.Channels) <= 1 {
		return 1
	}
	if ch == 0 {
		return c.IndexRepetitions()
	}
	unit := c.Channels[ch].Bytes
	if unit <= 0 {
		return 1
	}
	if r := c.maxTail() / unit; r > 1 {
		return r
	}
	return 1
}

// SyncAfter reports when a client tuning in at absolute byte-time t next
// holds the channel directory and first tier: the tier's end within the
// earliest index repetition starting at or after t (the repetition's hot
// section airs immediately afterwards, so a synced client can catch it). ok
// is false when no complete repetition remains in the cycle (the client must
// wait for the next cycle head) and on single-channel cycles, whose serial
// index has already flown past any mid-cycle joiner.
func (c *Cycle) SyncAfter(t int64) (sync int64, ok bool) {
	k := int64(len(c.Channels))
	if k <= 1 {
		return 0, false
	}
	unit := int64(c.indexUnit())
	if unit <= 0 {
		return 0, false
	}
	r := int64(0)
	if t > c.Start {
		// ceil((t-Start)/(k*unit)): first repetition starting at or after t.
		r = (t - c.Start + k*unit - 1) / (k * unit)
	}
	if r >= int64(c.IndexRepetitions()) {
		return 0, false
	}
	return c.Start + k*(r*unit+int64(c.channelLead()+c.IndexBytes)), true
}

// IndexStart is the absolute byte-time of the index segment. In multichannel
// cycles the index channel carries [head][directory][first tier], so the
// segment starts after the directory, at index-channel pace (K aggregate
// byte-ticks per channel byte).
func (c *Cycle) IndexStart() int64 {
	if k := len(c.Channels); k > 1 {
		return c.Start + int64(k*(c.HeadBytes+c.DirBytes))
	}
	return c.Start + int64(c.HeadBytes)
}

// SecondTierStart is the absolute byte-time of the second-tier segment.
// Meaningful in single-channel cycles only (each data channel carries its own
// stripe at its own pace otherwise).
func (c *Cycle) SecondTierStart() int64 { return c.Start + int64(c.HeadBytes+c.IndexBytes) }

// DocStart is the absolute byte-time of the document section in
// single-channel cycles.
func (c *Cycle) DocStart() int64 {
	return c.Start + int64(c.HeadBytes+c.IndexBytes+c.SecondTierBytes)
}

// End is the absolute byte-time one past the cycle.
func (c *Cycle) End() int64 { return c.Start + c.Duration() }

// Placement returns the placement of a document in this cycle, if scheduled.
func (c *Cycle) Placement(id xmldoc.DocID) (DocPlacement, bool) {
	for _, p := range c.Docs {
		if p.ID == id {
			return p, true
		}
	}
	return DocPlacement{}, false
}

// ChannelStreamOffset is a document's byte offset within its carrying
// channel's full cycle stream (second tier included) — the offset the channel
// directory broadcasts.
func (c *Cycle) ChannelStreamOffset(p DocPlacement) int {
	if len(c.Channels) == 0 {
		return p.Offset
	}
	return c.Channels[p.Channel].SecondTierBytes + p.Offset
}

// DirEnd is the absolute byte-time the channel directory finishes airing —
// the earliest moment a returning client can start receiving documents.
func (c *Cycle) DirEnd() int64 {
	return c.Start + int64(len(c.Channels))*int64(c.channelLead())
}

// IndexEnd is the absolute byte-time the first tier finishes airing on the
// index channel — the earliest moment a first-cycle client (which must hear
// the tier before it knows its result documents) can start receiving them.
func (c *Cycle) IndexEnd() int64 {
	return c.Start + int64(len(c.Channels))*int64(c.channelLead()+c.IndexBytes)
}

// DocAirInterval is the absolute byte-time interval during which a
// placement's first airing is on air. In multichannel cycles the carrying
// channel airs one byte per K aggregate byte-ticks, starting after the guard
// prefix; a single-tuner client receives the document iff it tunes the
// channel for this whole interval. Light channels replay their unit
// (ChannelRepetitions); later airings start one wall-clock unit apart.
func (c *Cycle) DocAirInterval(p DocPlacement) (start, end int64) {
	if len(c.Channels) == 0 {
		start = c.DocStart() + int64(p.Offset)
		return start, start + int64(p.Size)
	}
	k := int64(len(c.Channels))
	off := int64(c.channelLead() + c.ChannelStreamOffset(p))
	return c.Start + k*off, c.Start + k*(off+int64(p.Size))
}

// Commitment is one document a single-tuner client is committed to receive,
// with the absolute byte-time interval of the chosen airing (which may be a
// later replay of the carrying channel's unit, not its first).
type Commitment struct {
	DocPlacement
	Start, End int64
}

// Commitments selects the wanted documents a single-tuner client can receive
// from this cycle — the receivable commitment — and appends them, with the
// chosen airing intervals, to dst: every airing (replays included) of every
// wanted document is a candidate interval, committed greedily by earliest end
// (ties to earliest start, then lowest doc ID), skipping intervals that
// overlap a commitment or that start before the client holds the directory —
// DirEnd for a returning client, IndexEnd for one still reading the first
// tier (firstCycle). On a single-channel cycle every wanted document is
// receivable, in plan order, since the serial layout airs all documents after
// the index.
//
// want is the request's outstanding set in its one representation: sorted
// ascending, duplicate-free (see xmldoc.HasID). It is only read. Nothing is
// allocated when dst has room for the cycle's airings of the wanted
// documents, so a caller retiring many requests reuses one buffer.
//
// engine.Ledger applies it for every driver, and simulated clients execute
// the ledger's copy: a document no single-tuner client could have caught is
// rescheduled by the server instead of being counted as delivered.
func (c *Cycle) Commitments(dst []Commitment, want []xmldoc.DocID, firstCycle bool) []Commitment {
	ready := c.DirEnd()
	if firstCycle {
		ready = c.IndexEnd()
	}
	return c.CommitmentsFrom(dst, want, ready, nil)
}

// AirInterval is one absolute byte-time span a tuner is busy receiving.
type AirInterval struct {
	Start, End int64
}

// CommitmentsFrom is Commitments with an explicit ready time and a set of
// intervals during which the tuner is already busy (e.g. executing the
// server's commitment): the greedy earliest-end selection runs over wanted
// doc airings starting at or after ready that do not overlap busy or an
// earlier commitment. It lets a client that synced mid-cycle on an index
// repetition catch documents opportunistically beyond the server's
// conservative commitment.
func (c *Cycle) CommitmentsFrom(dst []Commitment, want []xmldoc.DocID, ready int64, busy []AirInterval) []Commitment {
	if len(c.Channels) <= 1 {
		// A serial program airs every document after the index, so all wanted
		// documents are receivable in plan order.
		for _, p := range c.Docs {
			if xmldoc.HasID(want, p.ID) {
				start, end := c.DocAirInterval(p)
				dst = append(dst, Commitment{p, start, end})
			}
		}
		return dst
	}
	// Candidates are every airing of every wanted document at or after ready:
	// its data-channel airing (plus replays, if the channel is light enough to
	// replay its unit) and, for the hot set, every index-channel repetition's
	// copy. They are gathered behind dst's existing entries, ordered, and the
	// chosen ones compacted to the front of that tail.
	base := len(dst)
	k := int64(len(c.Channels))
	addAirings := func(p DocPlacement, s0, unit, reps int64) {
		r := int64(0)
		if ready > s0 && unit > 0 {
			// First airing starting at or after ready.
			r = (ready - s0 + unit - 1) / unit
		}
		for ; r < reps; r++ {
			start := s0 + r*unit
			if start < ready {
				break // unit == 0 degenerate guard
			}
			dst = append(dst, Commitment{p, start, start + int64(p.Size)*k})
		}
	}
	for _, p := range c.Docs {
		if !xmldoc.HasID(want, p.ID) {
			continue
		}
		s0, _ := c.DocAirInterval(p)
		unit := k * int64(c.Channels[p.Channel].Bytes)
		addAirings(p, s0, unit, int64(c.ChannelRepetitions(p.Channel)))
	}
	hotStart := int64(c.channelLead() + c.IndexBytes)
	for _, p := range c.HotDocs {
		if !xmldoc.HasID(want, p.ID) {
			continue
		}
		s0 := c.Start + k*(hotStart+int64(p.Offset))
		addAirings(p, s0, k*int64(c.indexUnit()), int64(c.IndexRepetitions()))
	}
	slices.SortFunc(dst[base:], func(a, b Commitment) int {
		return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	n := base
	for _, w := range dst[base:] {
		// Single tuner: skip an airing that overlaps a busy span or a
		// commitment, and any later airing of a document already committed.
		free := !slices.ContainsFunc(busy, func(b AirInterval) bool { return w.Start < b.End && b.Start < w.End }) &&
			!slices.ContainsFunc(dst[base:n], func(cm Commitment) bool {
				return cm.ID == w.ID || (w.Start < cm.End && cm.Start < w.End)
			})
		if free {
			dst[n] = w
			n++
		}
	}
	return dst[:n]
}

// ChannelDir builds the channel-directory entries for the cycle's plan
// (multichannel cycles only).
func (c *Cycle) ChannelDir() []wire.ChannelDirEntry {
	if len(c.Channels) == 0 {
		return nil
	}
	entries := make([]wire.ChannelDirEntry, 0, len(c.Docs))
	for _, p := range c.Docs {
		entries = append(entries, wire.ChannelDirEntry{
			Doc:     p.ID,
			Channel: uint8(p.Channel),
			Offset:  uint64(c.ChannelStreamOffset(p)),
		})
	}
	return entries
}

// Builder assembles cycles over a document collection. The collection is
// dynamic: documents can be added and removed between cycles (the merged
// DataGuide is maintained incrementally) and the CI is rebuilt lazily from
// the maintained forest. A Builder is not safe for concurrent use; the engine
// that owns it is driven from one goroutine.
type Builder struct {
	model    core.SizeModel
	mode     Mode
	encoding core.IndexEncoding
	channels int // 1 = single serial stream; K > 1 = index channel + K-1 data channels

	docs   map[xmldoc.DocID]*xmldoc.Document
	forest *dataguide.Forest

	// ci caches the CI built from forest; a mutation drops it.
	ci *core.Index
}

// NewBuilder prepares a builder over the initial collection.
func NewBuilder(c *xmldoc.Collection, m core.SizeModel, mode Mode) (*Builder, error) {
	if mode != OneTierMode && mode != TwoTierMode {
		return nil, fmt.Errorf("broadcast: invalid mode %d", mode)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	b := &Builder{
		model:    m,
		mode:     mode,
		channels: 1,
		docs:     make(map[xmldoc.DocID]*xmldoc.Document, c.Len()),
		forest:   dataguide.MergeParallel(c, 0),
	}
	for _, d := range c.Docs() {
		b.docs[d.ID] = d
	}
	return b, nil
}

// AddDocument admits a new document to the collection; it becomes indexable
// and schedulable from the next cycle.
func (b *Builder) AddDocument(d *xmldoc.Document) error {
	if d == nil || d.Root == nil {
		return fmt.Errorf("broadcast: cannot add an empty document")
	}
	if _, dup := b.docs[d.ID]; dup {
		return fmt.Errorf("broadcast: document %d already present", d.ID)
	}
	b.forest.Add(d)
	b.docs[d.ID] = d
	b.ci = nil
	return nil
}

// RemoveDocument retires a document from the collection.
func (b *Builder) RemoveDocument(id xmldoc.DocID) error {
	d, ok := b.docs[id]
	if !ok {
		return fmt.Errorf("broadcast: document %d not present", id)
	}
	if err := b.forest.Remove(d); err != nil {
		return fmt.Errorf("broadcast: %w", err)
	}
	delete(b.docs, id)
	b.ci = nil
	return nil
}

// DocByID returns a current document, or nil.
func (b *Builder) DocByID(id xmldoc.DocID) *xmldoc.Document { return b.docs[id] }

// NumDocs reports the current collection size.
func (b *Builder) NumDocs() int { return len(b.docs) }

// CI exposes the full compact index over the current collection.
func (b *Builder) CI() *core.Index {
	if b.ci == nil {
		// BuildCIFromForest errors only on an invalid model, which the
		// constructor validated.
		b.ci, _ = core.BuildCIFromForest(b.forest, b.model)
	}
	return b.ci
}

// SetChannels selects the cycle layout: 1 (the default) builds the serial
// single-channel program; k > 1 builds one index channel plus k-1 data
// channels. Multichannel layout requires TwoTierMode, and k-1 data channels
// must fit the directory's uint8 channel field.
func (b *Builder) SetChannels(k int) error {
	if k < 1 {
		return fmt.Errorf("broadcast: channel count %d < 1", k)
	}
	if k > 256 {
		return fmt.Errorf("broadcast: channel count %d exceeds 256", k)
	}
	if k > 1 && b.mode != TwoTierMode {
		return fmt.Errorf("broadcast: multichannel layout requires two-tier mode")
	}
	b.channels = k
	return nil
}

// CheckCompress states the transport rule beside the layout rules above:
// per-frame compression needs a single channel, because the channel
// directory's hop offsets index the uncompressed stream and envelope sizes
// would invalidate them.
func CheckCompress(channels int, compress bool) error {
	if compress && channels > 1 {
		return fmt.Errorf("broadcast: compression requires a single channel, got K=%d", channels)
	}
	return nil
}

// SetEncoding selects the first tier's wire layout. The succinct encoding
// requires TwoTierMode: the one-tier index embeds per-node document
// offsets, which the balanced-parentheses form does not carry.
func (b *Builder) SetEncoding(e core.IndexEncoding) error {
	switch e {
	case core.EncodingNode:
	case core.EncodingSuccinct:
		if b.mode != TwoTierMode {
			return fmt.Errorf("broadcast: succinct encoding requires two-tier mode")
		}
	default:
		return fmt.Errorf("broadcast: invalid index encoding %d", int(e))
	}
	b.encoding = e
	return nil
}

// BuildCycle lays out one cycle: the CI is pruned to the pending query set,
// packed under the mode's tier, and the scheduled documents are placed after
// it. docPlan must not contain duplicates or unknown documents.
func (b *Builder) BuildCycle(number, start int64, pending []xpath.Path, docPlan []xmldoc.DocID) (*Cycle, error) {
	pci, _, _ := b.CI().Prune(pending) // the error is always nil
	return b.BuildCycleWithIndex(number, start, pci, docPlan)
}

// BuildCycleWithIndex lays out one cycle around an already-pruned air index
// (the engine's PCI, maintained across cycles by its PrunedView).
// docPlan must not contain duplicates or unknown documents.
func (b *Builder) BuildCycleWithIndex(number, start int64, index *core.Index, docPlan []xmldoc.DocID) (*Cycle, error) {
	cycle := &Cycle{
		Number:   number,
		Start:    start,
		Mode:     b.mode,
		Encoding: b.encoding,
		Index:    index,
		Catalog:  wire.BuildCatalog(index),
	}

	// Document section layout.
	seen := make(map[xmldoc.DocID]struct{}, len(docPlan))
	for _, id := range docPlan {
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("broadcast: duplicate document %d in plan", id)
		}
		seen[id] = struct{}{}
		if b.docs[id] == nil {
			return nil, fmt.Errorf("broadcast: unknown document %d in plan", id)
		}
	}
	if b.channels > 1 {
		b.layoutChannels(cycle, docPlan)
	} else {
		offset := 0
		for _, id := range docPlan {
			doc := b.docs[id]
			cycle.Docs = append(cycle.Docs, DocPlacement{ID: id, Offset: offset, Size: doc.Size()})
			offset += doc.Size()
		}
		cycle.DocBytes = offset
	}

	// Index segment.
	tier := core.OneTier
	if b.mode == TwoTierMode {
		tier = core.FirstTier
	}
	cycle.Packing = index.Pack(tier)
	if b.encoding == core.EncodingSuccinct {
		sz, err := succinct.TierSize(index, cycle.Catalog.Len(), b.model)
		if err != nil {
			return nil, fmt.Errorf("broadcast: size succinct tier: %w", err)
		}
		cycle.TierBytes = sz
		pb := b.model.PacketBytes
		cycle.IndexBytes = (sz + pb - 1) / pb * pb
	} else {
		cycle.IndexBytes = cycle.Packing.AirBytes()
	}
	if b.mode == TwoTierMode && b.channels == 1 {
		cycle.SecondTierBytes = wire.SecondTierSize(len(docPlan), b.model)
	}

	catBytes, err := cycle.Catalog.Encode()
	if err != nil {
		return nil, fmt.Errorf("broadcast: encode catalog: %w", err)
	}
	cycle.Head = wire.CycleHead{
		Number:     uint32(number),
		TwoTier:    b.mode == TwoTierMode,
		Succinct:   b.encoding == core.EncodingSuccinct,
		NumDocs:    uint16(len(docPlan)),
		RootLabels: wire.RootLabels(index),
		Catalog:    catBytes,
	}
	cycle.HeadBytes = cycle.Head.Size()
	if b.channels > 1 {
		cycle.Channels[0].Bytes = cycle.HeadBytes + cycle.DirBytes + cycle.IndexBytes
		selectHotDocs(cycle)
	}
	return cycle, nil
}

// hotRepTarget is the minimum number of index-channel repetitions preserved
// when hot documents extend the repetition unit: the hot budget is the slack
// left in a quarter of the channel's span after the guard and tier, so the
// unit — and with it every hot document — still airs at least four times per
// cycle (the cycle head plus three mid-cycle sync points). A higher target
// means more frequent sync points but a smaller hot section; four balances
// the two for the skewed workloads the policy layer produces.
const hotRepTarget = 4

// selectHotDocs appends the plan's hottest prefix to the index channel's
// repetition unit. The plan arrives in the scheduler's delivery order —
// demand-ranked under the on-demand policies — so the prefix is the cycle's
// most-requested content; replicating it beside the tier serves the skewed
// head of demand within one repetition of a client's sync instead of one
// cycle. The selection only consumes slack the index channel would otherwise
// idle through (the cycle's duration is pinned by its heaviest data stripe),
// so it never lengthens the cycle.
func selectHotDocs(cycle *Cycle) {
	span := cycle.channelLead() + cycle.maxTail()
	budget := span/hotRepTarget - cycle.channelLead() - cycle.IndexBytes
	off := 0
	for _, p := range cycle.Docs {
		if off+p.Size > budget {
			break
		}
		cycle.HotDocs = append(cycle.HotDocs, DocPlacement{ID: p.ID, Offset: off, Size: p.Size, Channel: 0})
		off += p.Size
	}
	cycle.HotBytes = off
}

// layoutChannels stripes a validated plan across the builder's data channels
// and fills the cycle's per-channel layout. The index channel's Bytes is
// completed by the caller once head and index sizes are known.
func (b *Builder) layoutChannels(cycle *Cycle, docPlan []xmldoc.DocID) {
	k := b.channels
	stripes := schedule.Stripe(docPlan, func(d xmldoc.DocID) int { return b.docs[d].Size() }, k-1)
	cycle.Channels = make([]ChannelLayout, k)
	cycle.Channels[0] = ChannelLayout{ID: 0, Role: IndexChannelRole}
	cycle.DirBytes = wire.ChannelDirSize(len(docPlan), b.model)

	// Per-channel placements, channel-local offsets.
	byID := make(map[xmldoc.DocID]DocPlacement, len(docPlan))
	for ci, stripe := range stripes {
		ch := ci + 1
		lay := ChannelLayout{ID: ch, Role: DataChannelRole}
		lay.SecondTierBytes = wire.SecondTierSize(len(stripe), b.model)
		offset := 0
		for _, id := range stripe {
			p := DocPlacement{ID: id, Offset: offset, Size: b.docs[id].Size(), Channel: ch}
			lay.Docs = append(lay.Docs, p)
			byID[id] = p
			offset += p.Size
		}
		lay.DocBytes = offset
		lay.Bytes = lay.SecondTierBytes + lay.DocBytes
		cycle.Channels[ch] = lay
		cycle.SecondTierBytes += lay.SecondTierBytes
		cycle.DocBytes += offset
	}

	// Aggregate view keeps the scheduler's broadcast order.
	for _, id := range docPlan {
		cycle.Docs = append(cycle.Docs, byID[id])
	}
}

// AppendEncoded appends the cycle's index-and-offset segments to dst in the
// order they air and returns the extended slice: the index, then — in
// two-tier mode — the channel directory when K > 1 and the second-tier
// offset list of every stream that carries documents (the one serial stream,
// or data channels 1..K-1). Each segment is exactly the cycle's own size for
// it (IndexStreamBytes, DirBytes, each stream's SecondTierBytes), so callers
// slice a pooled buffer apart at those sizes.
func (b *Builder) AppendEncoded(dst []byte, c *Cycle) ([]byte, error) {
	var err error
	if c.Encoding == core.EncodingSuccinct {
		dst, err = succinct.AppendTier(dst, c.Index, c.Catalog, b.model)
	} else {
		// A one-tier index carries each document's offset in its tuples.
		var offs wire.DocOffsets
		if c.Mode == OneTierMode {
			offs = make(wire.DocOffsets, len(c.Docs))
			for _, p := range c.Docs {
				offs[p.ID] = uint64(p.Offset)
			}
		}
		dst, err = wire.AppendIndex(dst, c.Index, c.Packing, c.Catalog, offs)
	}
	if err != nil {
		return nil, fmt.Errorf("broadcast: encode index: %w", err)
	}
	switch {
	case c.Mode == OneTierMode:
		return dst, nil
	case len(c.Channels) == 0:
		return b.appendSecondTier(dst, c.Docs)
	}
	if dst, err = wire.AppendChannelDir(dst, c.ChannelDir(), b.model); err != nil {
		return nil, fmt.Errorf("broadcast: encode channel dir: %w", err)
	}
	for _, lay := range c.Channels[1:] {
		if dst, err = b.appendSecondTier(dst, lay.Docs); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendSecondTier appends the offset list of one stream's documents, handed
// to the wire encoder sorted by document ID as the format lists them.
func (b *Builder) appendSecondTier(dst []byte, docs []DocPlacement) ([]byte, error) {
	entries := make([]wire.SecondTierEntry, len(docs))
	for i, p := range docs {
		entries[i] = wire.SecondTierEntry{Doc: p.ID, Offset: uint64(p.Offset)}
	}
	slices.SortFunc(entries, func(x, y wire.SecondTierEntry) int { return cmp.Compare(x.Doc, y.Doc) })
	dst, err := wire.AppendSecondTier(dst, entries, b.model)
	if err != nil {
		return nil, fmt.Errorf("broadcast: encode second tier: %w", err)
	}
	return dst, nil
}
