package netcast

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netcast/transport"
	"repro/internal/wire"
)

// FuzzFrame: flipping any single bit of a well-formed frame — in the sync
// bytes, type byte, payload or CRC trailer — must be rejected; no mutated
// frame is ever accepted with a valid checksum. (Bits of the length field
// are excluded: a length mutation re-frames the stream rather than
// corrupting covered bytes, and CRC32C only guarantees detection within one
// frame's coverage.) A round trip of the unmutated frame must still work.
func FuzzFrame(f *testing.F) {
	f.Add([]byte("payload"), uint16(0))
	f.Add([]byte{}, uint16(3))
	f.Add([]byte{0xB5, 0xCA, 0xB5, 0xCA}, uint16(40)) // payload full of sync bytes
	f.Fuzz(func(t *testing.T, payload []byte, bitPick uint16) {
		enc, err := wire.AppendFrame(nil, wire.FrameDoc, payload)
		if err != nil {
			return // oversized payload; nothing to assert
		}

		// Unmutated: must round-trip exactly.
		ft, back, err := wire.ReadFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("clean frame rejected: %v", err)
		}
		if ft != wire.FrameDoc || !bytes.Equal(back, payload) {
			t.Fatalf("clean frame round trip changed the payload")
		}

		// Mutated: pick a bit outside the 4 length bytes (enc[3:7]).
		mutable := make([]int, 0, len(enc)-4)
		for i := range enc {
			if i < 3 || i >= wire.FrameHeaderLen {
				mutable = append(mutable, i)
			}
		}
		idx := mutable[int(bitPick)%len(mutable)]
		bit := byte(1) << ((bitPick / uint16(len(mutable))) % 8)
		enc[idx] ^= bit
		if _, _, err := wire.ReadFrame(bytes.NewReader(enc)); err == nil {
			t.Fatalf("single-bit flip at byte %d bit %02x accepted", idx, bit)
		}
	})
}

// FuzzReadCapture: arbitrary capture bytes — including truncated and
// corrupted captures — must produce records or an error, never a
// panic. The capture reader is the client's downlink reader, so this fuzzes
// both; one seed is a bare stream, one a compressed stream with its hello,
// and one per tier an index snapshot.
func FuzzReadCapture(f *testing.F) {
	head, _ := (&wire.CycleHead{Number: 1, TwoTier: true, NumDocs: 1, Catalog: []byte{0, 0}}).Append(nil)
	doc := append([]byte{7, 0}, bytes.Repeat([]byte("<x/>"), 64)...) // long enough to deflate
	bare := []byte(captureMagic)
	compressed := bytes.NewBufferString(captureMagic)
	_ = transport.WriteHello(compressed, transport.Hello{Compress: true})
	enc := transport.NewEncoder(true, 0)
	for _, fr := range []struct {
		t       wire.FrameType
		payload []byte
	}{{wire.FrameCycleHead, head}, {wire.FrameIndex, []byte{1, 2, 3}}, {wire.FrameDoc, doc}} {
		inner, _ := wire.AppendFrame(nil, fr.t, fr.payload)
		bare = append(bare, inner...)
		env, _ := enc.Encode(transport.NoStream, inner)
		compressed.Write(env)
	}
	f.Add(bare)
	f.Add(bare[:len(bare)-5]) // truncated mid-frame
	f.Add(compressed.Bytes())
	f.Add(append([]byte("XBCAST2\n"), bare[len(captureMagic):]...)) // retired magic: refused, not parsed
	f.Add([]byte(captureMagic))
	ci, err := core.BuildCI(paperCollection(), core.DefaultSizeModel())
	if err != nil {
		f.Fatal(err)
	}
	for _, tier := range []core.Tier{core.OneTier, core.FirstTier} {
		var snap bytes.Buffer
		if err := WriteIndexSnapshot(&snap, ci, tier); err != nil {
			f.Fatal(err)
		}
		f.Add(snap.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadCapture(bytes.NewReader(data))
		if err == nil {
			// Whatever parsed must be internally consistent enough to walk.
			for _, r := range recs {
				for i := range r.Docs {
					_ = r.DocID(i)
				}
			}
		}
	})
}

// FuzzDecodeReject: arbitrary wire.FrameReject payloads must never panic, every
// accepted payload must decode to a retry-after inside the clamp bounds, and
// re-encoding what was decoded must be stable.
func FuzzDecodeReject(f *testing.F) {
	f.Add(encodeReject(0, ""))
	f.Add(encodeReject(time.Second, "rate limited"))
	f.Add(encodeReject(2*time.Hour, "pending set full")) // encoder clamps to maxRetryAfter
	// Token-bucket waits are odd durations, sub-millisecond ones included
	// (any uplink rate above 1 000 q/s): the encoder rounds them up to
	// whole wire milliseconds.
	f.Add(encodeReject(time.Millisecond, "pending set full"))
	f.Add(encodeReject(500*time.Microsecond, "pending set full"))
	f.Add(encodeReject(20*time.Millisecond+617*time.Microsecond, "pending set full"))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})                   // short of the retry-after header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})    // max ms, no reason
	f.Add([]byte{0, 0, 0, 0, 0xB5, 0xCA, 0}) // reason full of sync bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		retryAfter, reason, err := decodeReject(data)
		if err != nil {
			return
		}
		if retryAfter < 0 || retryAfter > maxRetryAfter {
			t.Fatalf("decoded retry-after %s outside [0, %s]", retryAfter, maxRetryAfter)
		}
		back := encodeReject(retryAfter, reason)
		again, reason2, err := decodeReject(back)
		if err != nil {
			t.Fatalf("re-encode of accepted reject failed to decode: %v", err)
		}
		// Millisecond wire granularity: a decoded hint is whole milliseconds,
		// so encoding it again rounds nothing and the round trip is exact.
		if again != retryAfter || reason2 != reason {
			t.Fatalf("reject round trip unstable: %s/%q -> %s/%q", retryAfter, reason, again, reason2)
		}
	})
}
