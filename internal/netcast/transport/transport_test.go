package transport

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

// repetitive returns n bytes of highly compressible pseudo-XML.
func repetitive(n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString("<item><name>broadcast</name><value>42</value></item>")
	}
	return b.Bytes()[:n]
}

func TestRoundTripCompressed(t *testing.T) {
	inner := repetitive(4096)
	var buf bytes.Buffer
	enc := NewEncoder(true, 0)
	env, err := enc.Encode(NoStream, inner)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(env)
	if buf.Len() >= len(inner) {
		t.Fatalf("compressible frame did not shrink: %d wire vs %d inner", buf.Len(), len(inner))
	}
	st := enc.Stats()
	if st.Frames != 1 || st.Compressed != 1 {
		t.Fatalf("stats = %+v, want 1 frame 1 compressed", st)
	}
	r := NewReader(&buf)
	fr, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Compressed {
		t.Fatal("marker bit not set on compressed frame")
	}
	if fr.Stream != NoStream {
		t.Fatalf("stream = %d, want NoStream", fr.Stream)
	}
	if !bytes.Equal(fr.Inner, inner) {
		t.Fatal("inner frame corrupted in round trip")
	}
	if fr.Wire != int(st.WireBytes) {
		t.Fatalf("Wire = %d, want %d", fr.Wire, st.WireBytes)
	}
}

func TestRoundTripRawFallback(t *testing.T) {
	// Incompressible content must ship raw via the marker bit: wire
	// overhead is the envelope only, never a deflate expansion.
	inner := make([]byte, 1<<14)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range inner {
		state = state*6364136223846793005 + 1442695040888963407
		inner[i] = byte(state >> 33)
	}

	var buf bytes.Buffer
	enc := NewEncoder(true, 0)
	env, err := enc.Encode(NoStream, inner)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(env)
	if buf.Len() > len(inner)+16 {
		t.Fatalf("incompressible frame regressed: %d wire vs %d inner", buf.Len(), len(inner))
	}
	fr, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Compressed {
		t.Fatal("marker bit set on raw-fallback frame")
	}
	if !bytes.Equal(fr.Inner, inner) {
		t.Fatal("inner frame corrupted in round trip")
	}
}

func TestCompressFloor(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(true, 0)
	small := repetitive(CompressFloor - 1)
	env, err := enc.Encode(NoStream, small)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(env)
	if st := enc.Stats(); st.Compressed != 0 {
		t.Fatalf("frame below floor was compressed: %+v", st)
	}
	fr, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Compressed || !bytes.Equal(fr.Inner, small) {
		t.Fatal("sub-floor frame mangled")
	}
}

func TestStreamIDs(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(false, 0)
	for _, id := range []int64{0, 1, 127, 128, 300, 1 << 40} {
		env, err := enc.Encode(id, []byte("q"))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(env)
	}
	r := NewReader(&buf)
	for _, id := range []int64{0, 1, 127, 128, 300, 1 << 40} {
		fr, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Stream != id {
			t.Fatalf("stream = %d, want %d", fr.Stream, id)
		}
		if string(fr.Inner) != "q" {
			t.Fatalf("inner = %q", fr.Inner)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF at clean stream end", err)
	}
}

func TestRawIsByteFaithful(t *testing.T) {
	inner := repetitive(2048)
	wire, err := NewEncoder(true, 0).Encode(7, inner)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := NewReader(bytes.NewReader(wire)).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Raw, wire) {
		t.Fatal("Frame.Raw is not the exact wire envelope")
	}
	if fr.Wire != len(wire) {
		t.Fatalf("Wire = %d, want %d", fr.Wire, len(wire))
	}
}

func TestResyncAfterCorruption(t *testing.T) {
	enc := NewEncoder(true, 0)
	b, _ := enc.Encode(NoStream, []byte("after the gap"))

	// Noise with lone syncA bytes never followed by syncB, so the scanner
	// exercises the false-sync path before finding the real frame.
	noise := bytes.Repeat([]byte{0x11, syncA}, 50)
	var stream bytes.Buffer
	stream.Write(noise)
	stream.Write(b)

	r := NewReader(&stream)
	if _, err := r.Next(); err == nil || !IsCorrupt(err) {
		t.Fatalf("read of corrupted stream: %v, want corrupt", err)
	}
	fr, skipped, err := r.Resync()
	if err != nil {
		t.Fatal(err)
	}
	if string(fr.Inner) != "after the gap" {
		t.Fatalf("resynced to %q", fr.Inner)
	}
	// Next consumed the first two noise bytes; Resync scanned the rest.
	if want := int64(len(noise) - 2); skipped != want {
		t.Fatalf("skipped = %d, want %d", skipped, want)
	}
}

func TestResyncSkipsCorruptCandidate(t *testing.T) {
	enc := NewEncoder(false, 0)
	bad, _ := enc.Encode(NoStream, []byte("doomed"))
	bad[len(bad)-1] ^= 0xFF // break the CRC
	good, _ := enc.Encode(NoStream, []byte("survivor"))

	var stream bytes.Buffer
	stream.WriteString("xx")
	stream.Write(bad)
	stream.Write(good)

	r := NewReader(&stream)
	fr, skipped, err := r.Resync()
	if err != nil {
		t.Fatal(err)
	}
	if string(fr.Inner) != "survivor" {
		t.Fatalf("resynced to %q", fr.Inner)
	}
	if want := int64(2 + len(bad)); skipped != want {
		t.Fatalf("skipped = %d, want %d (noise + failed candidate)", skipped, want)
	}
}

func TestCorruptDeflateBody(t *testing.T) {
	enc := NewEncoder(true, 0)
	env, _ := enc.Encode(NoStream, repetitive(4096))
	// Force the first deflate block's type to the reserved value (BTYPE=11)
	// and fix up the CRC so only the deflate layer can notice.
	bodyStart := len(env) - 4 - int(mustBodyLen(env))
	env[bodyStart] |= 0x06
	binary.LittleEndian.PutUint32(env[len(env)-4:], crc32Checksum(env[2:len(env)-4]))

	_, err := NewReader(bytes.NewReader(env)).Next()
	if err == nil || !IsCorrupt(err) {
		t.Fatalf("err = %v, want corrupt", err)
	}
}

func crc32Checksum(p []byte) uint32 { return crc32.Checksum(p, crcTable) }

// mustBodyLen parses the body length uvarint of a no-stream envelope.
func mustBodyLen(env []byte) uint64 {
	n, k := binary.Uvarint(env[3:])
	if k <= 0 {
		panic("bad envelope")
	}
	return n
}

func TestDeclaredLengthCap(t *testing.T) {
	var env []byte
	env = append(env, syncA, syncB, 0)
	env = binary.AppendUvarint(env, MaxInner+1)
	env = binary.LittleEndian.AppendUint32(env, crc32Checksum(env[2:]))
	_, err := NewReader(bytes.NewReader(env)).Next()
	if err == nil || !IsCorrupt(err) {
		t.Fatalf("err = %v, want corrupt for oversized declared length", err)
	}
}

func TestDecompressionBombCap(t *testing.T) {
	// A tiny deflate stream inflating past MaxInner must be rejected
	// without buffering the inflation.
	var comp bytes.Buffer
	fw, _ := flate.NewWriter(&comp, flate.BestCompression)
	zeros := make([]byte, 1<<20)
	for written := 0; written <= MaxInner; written += len(zeros) {
		fw.Write(zeros)
	}
	fw.Close()
	bomb := comp.Bytes()
	if len(bomb) > MaxInner {
		t.Fatalf("bomb body itself too large: %d", len(bomb))
	}

	var env []byte
	env = append(env, syncA, syncB, flagDeflate)
	env = binary.AppendUvarint(env, uint64(len(bomb)))
	env = append(env, bomb...)
	env = binary.LittleEndian.AppendUint32(env, crc32Checksum(env[2:]))

	r := NewReader(bytes.NewReader(env))
	_, err := r.Next()
	if err == nil || !IsCorrupt(err) {
		t.Fatalf("err = %v, want corrupt for decompression bomb", err)
	}
	if r.db.Len() > MaxInner+1 {
		t.Fatalf("bomb buffered %d bytes past the cap", r.db.Len())
	}
}

func TestUnknownFlagsRejected(t *testing.T) {
	var env []byte
	env = append(env, syncA, syncB, 0x80)
	env = binary.AppendUvarint(env, 1)
	env = append(env, 'x')
	env = binary.LittleEndian.AppendUint32(env, crc32Checksum(env[2:]))
	_, err := NewReader(bytes.NewReader(env)).Next()
	if err == nil || !IsCorrupt(err) {
		t.Fatalf("err = %v, want corrupt for unknown flags", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{},
		{Compress: true},
		{Mux: true, Credit: 32},
		{Compress: true, Mux: true, Credit: 1 << 19},
	} {
		var buf bytes.Buffer
		if err := WriteHello(&buf, h); err != nil {
			t.Fatal(err)
		}
		if !IsHelloPrefix(buf.Bytes()[:1]) || !IsHelloPrefix(buf.Bytes()[:4]) {
			t.Fatal("hello prefix not recognised")
		}
		got, err := ReadHello(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if got != h {
			t.Fatalf("hello = %+v, want %+v", got, h)
		}
	}
}

func TestHelloRejectsLegacyAndGarbage(t *testing.T) {
	if IsHelloPrefix([]byte{0xB5, 0xCA}) || IsHelloPrefix([]byte{syncA, syncB}) {
		t.Fatal("sync bytes misread as hello")
	}
	for _, bad := range []string{
		"XBT9\x01\x00\x00",                      // wrong magic
		"XBT1\x02\x00\x00",                      // unsupported version
		"XBT1\x01\xF0\x00",                      // unknown flags
		"XBT1\x01\x03" + "\xff\xff\xff\xff\x7f", // insane credit
	} {
		if _, err := ReadHello(bufio.NewReader(strings.NewReader(bad))); err == nil {
			t.Fatalf("hello %q accepted", bad)
		}
	}
}

func TestEncoderReuseDoesNotLeakBetweenFrames(t *testing.T) {
	// Each frame's DEFLATE stream must be independent: decoding frame N
	// must not need frames 1..N-1 (late joiners, capture replay).
	enc := NewEncoder(true, 0)
	var first []byte
	var envs [][]byte
	for i := 0; i < 5; i++ {
		inner := repetitive(2000 + i)
		if i == 0 {
			first = append([]byte(nil), inner...)
		}
		env, err := enc.Encode(NoStream, inner)
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env)
	}
	// Decode frame 0 alone with a fresh reader.
	fr, err := NewReader(bytes.NewReader(envs[0])).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fr.Inner, first) {
		t.Fatal("frame 0 not independently decodable")
	}
	// Decode frame 4 alone, too.
	if _, err := NewReader(bytes.NewReader(envs[4])).Next(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMuxFanIn is the in-memory multiplexing rate: per op, 4096
// stream-stamped query-sized frames over 64 logical streams are encoded and
// decoded back to back — the per-frame work of a multiplexed uplink (raw
// below the compression floor, exactly like live queries).
func BenchmarkMuxFanIn(b *testing.B) {
	const frames, streams = 4096, 64
	// A query inside a v2 inner frame: 7-byte header, payload, 4-byte checksum.
	query := append(make([]byte, 7), "/nitf/body/body.content/block"...)
	query = append(query, 0, 0, 0, 0)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var buf bytes.Buffer
		enc := NewEncoder(true, 0)
		for i := 0; i < frames; i++ {
			env, err := enc.Encode(int64(i%streams), query)
			if err != nil {
				b.Fatal(err)
			}
			buf.Write(env)
		}
		r := NewReader(&buf)
		for i := 0; i < frames; i++ {
			fr, err := r.Next()
			if err != nil {
				b.Fatal(err)
			}
			if fr.Stream != int64(i%streams) {
				b.Fatalf("frame %d: stream = %d, want %d", i, fr.Stream, i%streams)
			}
		}
	}
	b.ReportMetric(float64(frames)*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
}

// The fan-in rate is the one number the retired engine benchmark held that
// bench/ does not measure; it must keep being reported.
func TestMuxFanInBenchmarkReports(t *testing.T) {
	// One iteration, as CI's bench smoke runs it, not testing.Benchmark's
	// default second.
	benchtime := flag.Lookup("test.benchtime")
	old := benchtime.Value.String()
	if err := benchtime.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer benchtime.Value.Set(old)
	res := testing.Benchmark(BenchmarkMuxFanIn)
	if rate := res.Extra["frames/s"]; rate <= 0 {
		t.Fatalf("BenchmarkMuxFanIn reported frames/s = %v (N = %d), want > 0", rate, res.N)
	}
}
