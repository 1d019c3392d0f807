package broadcast

import (
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
	"repro/internal/xmldoc"
)

// buildMultichannel assembles one K-channel cycle over the whole collection.
func buildMultichannel(t *testing.T, k int) (*Builder, *Cycle) {
	t.Helper()
	c, queries := testSetup(t)
	b, err := NewBuilder(c, core.DefaultSizeModel(), TwoTierMode)
	if err != nil {
		t.Fatalf("NewBuilder: %v", err)
	}
	if err := b.SetChannels(k); err != nil {
		t.Fatalf("SetChannels(%d): %v", k, err)
	}
	plan := make([]xmldoc.DocID, 0, c.Len())
	for _, d := range c.Docs() {
		plan = append(plan, d.ID)
	}
	cy, err := b.BuildCycle(0, 0, queries[:6], plan)
	if err != nil {
		t.Fatalf("BuildCycle: %v", err)
	}
	return b, cy
}

func TestSetChannelsValidation(t *testing.T) {
	c, _ := testSetup(t)
	for _, tc := range []struct {
		mode Mode
		k    int
	}{
		{TwoTierMode, 0},
		{TwoTierMode, -2},
		{TwoTierMode, 257},
		{OneTierMode, 2},
	} {
		b, err := NewBuilder(c, core.DefaultSizeModel(), tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetChannels(tc.k); err == nil {
			t.Errorf("SetChannels(%d) on %s accepted", tc.k, tc.mode)
		}
	}
}

func TestMultichannelLayout(t *testing.T) {
	const k = 3
	b, cy := buildMultichannel(t, k)
	m := b.model
	if got := cy.ChannelCount(); got != k {
		t.Fatalf("ChannelCount = %d, want %d", got, k)
	}
	if cy.Channels[0].Role != IndexChannelRole {
		t.Errorf("channel 0 role = %s", cy.Channels[0].Role)
	}
	if want := cy.HeadBytes + cy.DirBytes + cy.IndexBytes; cy.Channels[0].Bytes != want {
		t.Errorf("index channel carries %d bytes, want head+dir+index = %d", cy.Channels[0].Bytes, want)
	}
	if cy.DirBytes != wire.ChannelDirSize(len(cy.Docs), m) {
		t.Errorf("DirBytes = %d, want %d", cy.DirBytes, wire.ChannelDirSize(len(cy.Docs), m))
	}

	// Every planned document is placed on exactly one data channel, with
	// contiguous channel-local offsets, and each data channel's layout sums
	// its stripe.
	totalDocs, totalST, totalDoc := 0, 0, 0
	for ch := 1; ch < k; ch++ {
		lay := cy.Channels[ch]
		if lay.Role != DataChannelRole {
			t.Fatalf("channel %d role = %s", ch, lay.Role)
		}
		if lay.SecondTierBytes != wire.SecondTierSize(len(lay.Docs), m) {
			t.Errorf("channel %d stripe second tier = %d bytes, want %d", ch, lay.SecondTierBytes, wire.SecondTierSize(len(lay.Docs), m))
		}
		off := 0
		for _, p := range lay.Docs {
			if p.Channel != ch {
				t.Errorf("placement %v recorded on wrong channel (layout %d)", p, ch)
			}
			if p.Offset != off {
				t.Errorf("channel %d doc %d at offset %d, want contiguous %d", ch, p.ID, p.Offset, off)
			}
			off += p.Size
		}
		if lay.DocBytes != off {
			t.Errorf("channel %d DocBytes = %d, docs sum to %d", ch, lay.DocBytes, off)
		}
		if lay.Bytes != lay.SecondTierBytes+lay.DocBytes {
			t.Errorf("channel %d Bytes = %d, want %d", ch, lay.Bytes, lay.SecondTierBytes+lay.DocBytes)
		}
		totalDocs += len(lay.Docs)
		totalST += lay.SecondTierBytes
		totalDoc += lay.DocBytes
	}
	if totalDocs != len(cy.Docs) {
		t.Errorf("data channels carry %d docs, plan has %d", totalDocs, len(cy.Docs))
	}
	if cy.SecondTierBytes != totalST {
		t.Errorf("SecondTierBytes = %d, stripes sum to %d", cy.SecondTierBytes, totalST)
	}
	if cy.DocBytes != totalDoc {
		t.Errorf("DocBytes = %d, channel doc sections sum to %d", cy.DocBytes, totalDoc)
	}

	// Duration is K times the heaviest channel tail past the guard prefix.
	maxTail := cy.IndexBytes
	for ch := 1; ch < k; ch++ {
		if cy.Channels[ch].Bytes > maxTail {
			maxTail = cy.Channels[ch].Bytes
		}
	}
	lead := cy.HeadBytes + cy.DirBytes
	if want := int64(k) * int64(lead+maxTail); cy.Duration() != want {
		t.Errorf("Duration = %d, want %d", cy.Duration(), want)
	}
	if cy.End() != cy.Start+cy.Duration() {
		t.Errorf("End = %d, want Start+Duration = %d", cy.End(), cy.Start+cy.Duration())
	}
}

func TestMultichannelAirIntervals(t *testing.T) {
	const k = 4
	_, cy := buildMultichannel(t, k)
	dirEnd := cy.DirEnd()
	for _, p := range cy.Docs {
		start, end := cy.DocAirInterval(p)
		if start < dirEnd {
			t.Errorf("doc %d airs at %d, before the directory guard ends at %d", p.ID, start, dirEnd)
		}
		if end-start != int64(k)*int64(p.Size) {
			t.Errorf("doc %d air interval spans %d, want K*size = %d", p.ID, end-start, int64(k)*int64(p.Size))
		}
		if end > cy.End() {
			t.Errorf("doc %d airs past cycle end (%d > %d)", p.ID, end, cy.End())
		}
	}
	// Intervals on the same channel must not overlap.
	for _, a := range cy.Docs {
		for _, b := range cy.Docs {
			if a.ID >= b.ID || a.Channel != b.Channel {
				continue
			}
			as, ae := cy.DocAirInterval(a)
			bs, be := cy.DocAirInterval(b)
			if as < be && bs < ae {
				t.Errorf("docs %d and %d overlap on channel %d", a.ID, b.ID, a.Channel)
			}
		}
	}
}

func TestMultichannelDirMatchesLayout(t *testing.T) {
	_, cy := buildMultichannel(t, 3)
	dir := cy.ChannelDir()
	if len(dir) != len(cy.Docs) {
		t.Fatalf("dir has %d entries, plan %d docs", len(dir), len(cy.Docs))
	}
	byID := make(map[xmldoc.DocID]DocPlacement)
	for _, p := range cy.Docs {
		byID[p.ID] = p
	}
	for _, e := range dir {
		p, ok := byID[e.Doc]
		if !ok {
			t.Fatalf("dir entry for unplanned doc %d", e.Doc)
		}
		if int(e.Channel) != p.Channel {
			t.Errorf("doc %d: dir channel %d, placement channel %d", e.Doc, e.Channel, p.Channel)
		}
		if int(e.Offset) != cy.ChannelStreamOffset(p) {
			t.Errorf("doc %d: dir offset %d, stream offset %d", e.Doc, e.Offset, cy.ChannelStreamOffset(p))
		}
	}
}

func TestRepetitionsSingleChannel(t *testing.T) {
	c, queries := testSetup(t)
	b, err := NewBuilder(c, core.DefaultSizeModel(), TwoTierMode)
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]xmldoc.DocID, 0, c.Len())
	for _, d := range c.Docs() {
		plan = append(plan, d.ID)
	}
	cy, err := b.BuildCycle(0, 0, queries[:4], plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := cy.IndexRepetitions(); got != 1 {
		t.Errorf("single-channel IndexRepetitions = %d, want 1", got)
	}
	if _, ok := cy.SyncAfter(cy.Start + 1); ok {
		t.Error("single-channel SyncAfter reported a mid-cycle sync point")
	}
	if len(cy.HotDocs) != 0 {
		t.Errorf("single-channel cycle selected %d hot docs", len(cy.HotDocs))
	}
}

func TestChannelRepetitions(t *testing.T) {
	const k = 4
	_, cy := buildMultichannel(t, k)
	lead := cy.HeadBytes + cy.DirBytes
	maxTail := cy.IndexBytes
	for ch := 1; ch < k; ch++ {
		if cy.Channels[ch].Bytes > maxTail {
			maxTail = cy.Channels[ch].Bytes
		}
	}
	unit := lead + cy.IndexBytes + cy.HotBytes
	if want := (lead + maxTail) / unit; cy.IndexRepetitions() != max(want, 1) {
		t.Errorf("IndexRepetitions = %d, want span/unit = %d", cy.IndexRepetitions(), want)
	}
	if cy.ChannelRepetitions(0) != cy.IndexRepetitions() {
		t.Errorf("ChannelRepetitions(0) = %d, want IndexRepetitions %d", cy.ChannelRepetitions(0), cy.IndexRepetitions())
	}
	for ch := 1; ch < k; ch++ {
		want := maxTail / cy.Channels[ch].Bytes
		if want < 1 {
			want = 1
		}
		if got := cy.ChannelRepetitions(ch); got != want {
			t.Errorf("ChannelRepetitions(%d) = %d, want %d", ch, got, want)
		}
		// Every replay of the channel's unit must fit inside the cycle.
		if int64(k)*int64(lead+want*cy.Channels[ch].Bytes) > cy.Duration() {
			t.Errorf("channel %d: %d replays overflow the cycle", ch, want)
		}
	}
}

func TestHotDocsSelection(t *testing.T) {
	const k = 4
	_, cy := buildMultichannel(t, k)
	lead := cy.HeadBytes + cy.DirBytes
	maxTail := cy.IndexBytes
	for ch := 1; ch < k; ch++ {
		if cy.Channels[ch].Bytes > maxTail {
			maxTail = cy.Channels[ch].Bytes
		}
	}
	// The hot budget preserves at least hotRepTarget repetitions.
	if budget := (lead+maxTail)/hotRepTarget - lead - cy.IndexBytes; budget > 0 && cy.HotBytes > budget {
		t.Errorf("HotBytes = %d exceeds the repetition budget %d", cy.HotBytes, budget)
	}
	if len(cy.HotDocs) > 0 && cy.IndexRepetitions() < hotRepTarget {
		t.Errorf("hot docs selected but only %d repetitions survive (target %d)", cy.IndexRepetitions(), hotRepTarget)
	}
	// Hot docs are the plan's prefix, contiguous on channel 0.
	off := 0
	for i, p := range cy.HotDocs {
		if p.ID != cy.Docs[i].ID {
			t.Errorf("hot doc %d is %d, plan prefix has %d", i, p.ID, cy.Docs[i].ID)
		}
		if p.Channel != 0 {
			t.Errorf("hot doc %d placed on channel %d", p.ID, p.Channel)
		}
		if p.Offset != off {
			t.Errorf("hot doc %d at offset %d, want contiguous %d", p.ID, p.Offset, off)
		}
		off += p.Size
	}
	if cy.HotBytes != off {
		t.Errorf("HotBytes = %d, hot docs sum to %d", cy.HotBytes, off)
	}
	// The index channel's advertised payload excludes the hot section: hot
	// documents stream once on their data channel, the index-channel copies
	// are air-time replication only.
	if want := cy.HeadBytes + cy.DirBytes + cy.IndexBytes; cy.Channels[0].Bytes != want {
		t.Errorf("index channel Bytes = %d, want %d (hot section excluded)", cy.Channels[0].Bytes, want)
	}
}

func TestSyncAfterBoundaries(t *testing.T) {
	const k = 4
	_, cy := buildMultichannel(t, k)
	reps := cy.IndexRepetitions()
	if reps < 2 {
		t.Fatalf("fixture airs only %d repetitions; boundaries need at least 2", reps)
	}
	unit := int64(cy.HeadBytes+cy.DirBytes+cy.IndexBytes+cy.HotBytes) * int64(k)
	tierRead := int64(cy.HeadBytes+cy.DirBytes+cy.IndexBytes) * int64(k)
	for r := 0; r < reps; r++ {
		repStart := cy.Start + int64(r)*unit
		sync, ok := cy.SyncAfter(repStart)
		if !ok {
			t.Fatalf("no sync point at repetition %d start", r)
		}
		if want := repStart + tierRead; sync != want {
			t.Errorf("SyncAfter(rep %d start) = %d, want tier end %d", r, sync, want)
		}
		if r > 0 {
			// Tuning in just after a repetition starts means waiting for
			// the next one.
			late, ok := cy.SyncAfter(repStart - unit + 1)
			if !ok || late != repStart+tierRead {
				t.Errorf("SyncAfter(mid repetition %d) = %d ok=%v, want next tier end %d", r-1, late, ok, repStart+tierRead)
			}
		}
	}
	// Past the last repetition's start there is nothing left to sync on.
	if _, ok := cy.SyncAfter(cy.Start + int64(reps-1)*unit + 1); ok {
		t.Error("SyncAfter past the last repetition start still reports a sync point")
	}
	// Before the cycle the first repetition serves.
	if sync, ok := cy.SyncAfter(cy.Start - 1000); !ok || sync != cy.Start+tierRead {
		t.Errorf("SyncAfter(before cycle) = %d ok=%v, want first tier end %d", sync, ok, cy.Start+tierRead)
	}
}

func TestCommitmentsHotAirings(t *testing.T) {
	const k = 4
	_, cy := buildMultichannel(t, k)
	if len(cy.HotDocs) == 0 {
		t.Skip("fixture selects no hot docs")
	}
	reps := cy.IndexRepetitions()
	if reps < 2 {
		t.Skip("fixture airs a single repetition")
	}
	// A client syncing on the last repetition has missed every first airing
	// on the data channels; the hot section behind the last tier (plus any
	// data-channel replays still to come) must still cover the hot set.
	unit := int64(cy.HeadBytes+cy.DirBytes+cy.IndexBytes+cy.HotBytes) * int64(k)
	ready, ok := cy.SyncAfter(cy.Start + int64(reps-1)*unit)
	if !ok {
		t.Fatal("no sync point at the last repetition")
	}
	var want []xmldoc.DocID
	for _, p := range cy.HotDocs {
		want = xmldoc.InsertID(want, p.ID)
	}
	got := cy.CommitmentsFrom(nil, want, ready, nil)
	if len(got) != len(want) {
		t.Fatalf("late sync commits %d of %d hot docs", len(got), len(want))
	}
	for _, cm := range got {
		if cm.Start < ready {
			t.Errorf("hot doc %d committed at %d, before the client synced at %d", cm.ID, cm.Start, ready)
		}
		if cm.End > cy.End() {
			t.Errorf("hot doc %d committed past cycle end", cm.ID)
		}
	}
}

func TestReceivableSingleChannel(t *testing.T) {
	c, queries := testSetup(t)
	b, err := NewBuilder(c, core.DefaultSizeModel(), TwoTierMode)
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]xmldoc.DocID, 0, c.Len())
	for _, d := range c.Docs() {
		plan = append(plan, d.ID)
	}
	cy, err := b.BuildCycle(0, 0, queries[:4], plan)
	if err != nil {
		t.Fatal(err)
	}
	want := []xmldoc.DocID{plan[0], plan[3]} // collection order is ID order
	got := cy.Commitments(nil, want, true)
	if len(got) != len(want) {
		t.Errorf("single channel: %d of %d wanted docs receivable", len(got), len(want))
	}
}

func TestReceivableMultichannel(t *testing.T) {
	_, cy := buildMultichannel(t, 3)
	var want []xmldoc.DocID
	for _, p := range cy.Docs {
		want = xmldoc.InsertID(want, p.ID)
	}
	got := cy.Commitments(nil, want, false)
	if len(got) == 0 {
		t.Fatal("returning client receives nothing")
	}
	// Commitments carry the airing instance actually chosen — a first
	// airing, a channel replay, or a hot-section repetition — so the
	// overlap check runs on their own intervals, not the first airing.
	for _, cm := range got {
		if cm.Start < cy.DirEnd() {
			t.Errorf("committed doc %d airs before the client holds the directory", cm.ID)
		}
		if cm.End > cy.End() {
			t.Errorf("committed doc %d airs past cycle end (%d > %d)", cm.ID, cm.End, cy.End())
		}
		if cm.End-cm.Start != int64(cy.ChannelCount())*int64(cm.Size) {
			t.Errorf("committed doc %d interval spans %d, want K*size = %d", cm.ID, cm.End-cm.Start, int64(cy.ChannelCount())*int64(cm.Size))
		}
	}
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if got[i].Start < got[j].End && got[j].Start < got[i].End {
				t.Errorf("committed intervals %d and %d overlap", i, j)
			}
		}
	}
	// A first-cycle client is busy on the first tier longer, so it can
	// never receive more than a returning client.
	first := cy.Commitments(nil, want, true)
	if len(first) > len(got) {
		t.Errorf("first-cycle client receives %d docs, returning client %d", len(first), len(got))
	}
}
