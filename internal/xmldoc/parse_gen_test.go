package xmldoc_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
)

// Tests and benchmarks of the parser over generated collections. They live
// in the external package because gen imports xmldoc.

func generate(tb testing.TB, schema *dtd.Schema, numDocs int, textScale float64, seed int64) [][]byte {
	tb.Helper()
	coll, err := gen.Documents(gen.DocConfig{Schema: schema, NumDocs: numDocs, TextScale: textScale, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	docs := make([][]byte, coll.Len())
	for i, d := range coll.Docs() {
		docs[i] = d.Marshal()
	}
	return docs
}

// escapedTree is a random tree whose texts hold every character
// xml.EscapeText rewrites, whitespace at the ends, multi-byte runes, and
// what it replaces with U+FFFD.
func escapedTree(r *rand.Rand) *xmldoc.Node {
	texts := []string{
		`a<b>&"c'd`, "\ttab\nnewline\rreturn ", " \r\n ", "héllo 世界 \U0001f600",
		"bad \xff utf8", "nul \x00 and \ufffe", "]]>", "&amp;lt;", "plain",
	}
	root := xmldoc.RandomTree(r, 4)
	var walk func(n *xmldoc.Node)
	walk = func(n *xmldoc.Node) {
		if n.Text != "" {
			n.Text = texts[r.Intn(len(texts))]
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return root
}

// TestFastPathCoversMarshal: the tokenizer declines nothing Marshal writes,
// so encoding/xml serves no document frame of any broadcast.
func TestFastPathCoversMarshal(t *testing.T) {
	check := func(what string, doc []byte) {
		t.Helper()
		if !xmldoc.FastPathAccepts(doc) {
			t.Errorf("tokenizer declined %s: %.200q", what, doc)
		}
		if err := xmldoc.DiffParse(doc); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	for _, schema := range []*dtd.Schema{dtd.NITF(), dtd.NASA()} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, scale := range []float64{1, 2.1} {
				for _, doc := range generate(t, schema, 40, scale, seed) {
					check(schema.Name, doc)
				}
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		check("escaped random tree", xmldoc.NewDocument(1, escapedTree(r)).Marshal())
	}
}

// TestParseMutations runs the differential check over windows of real
// documents with a few bytes changed to whatever the tokenizer branches on.
func TestParseMutations(t *testing.T) {
	iterations := 200_000
	if raceDetectorEnabled || testing.Short() {
		iterations = 20_000
	}
	r := rand.New(rand.NewSource(1))
	docs := generate(t, dtd.NITF(), 20, 2.1, 1)
	// Small subtrees are windows that parse before they are edited; a random
	// window almost never does.
	var subtrees [][]byte
	var collect func(n *xmldoc.Node)
	collect = func(n *xmldoc.Node) {
		if b := xmldoc.NewDocument(1, n).Marshal(); len(b) <= 200 {
			subtrees = append(subtrees, b)
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	for _, doc := range docs {
		root, err := xmldoc.ParseBytes(doc)
		if err != nil {
			t.Fatal(err)
		}
		collect(root)
	}
	for i := 0; i < 50; i++ {
		collect(escapedTree(r))
	}
	edits := []string{
		"<", ">", "/", "&", ";", "#", "x", " ", "\t", "\n", "\r", `"`, "'", "=", ":", "!", "-", "[", "]", "?",
		"\x00", "é", "\xff",
	}
	var buf []byte
	for it := 0; it < iterations; it++ {
		if r.Intn(2) == 0 {
			buf = append(buf[:0], subtrees[r.Intn(len(subtrees))]...)
		} else {
			doc := docs[r.Intn(len(docs))]
			lo := r.Intn(len(doc))
			buf = append(buf[:0], doc[lo:lo+r.Intn(min(len(doc)-lo, 200)+1)]...)
		}
		for n := r.Intn(4); n > 0; n-- {
			at, edit := r.Intn(len(buf)+1), edits[r.Intn(len(edits))]
			end := at // insert
			if r.Intn(2) == 0 {
				end = min(at+1+r.Intn(2), len(buf)) // overwrite a byte or two
			}
			buf = append(buf[:at], append([]byte(edit), buf[end:]...)...)
		}
		if err := xmldoc.DiffParse(buf); err != nil {
			t.Fatalf("iteration %d, %q: %v", it, buf, err)
		}
	}
}

func TestParseBytesAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	docs := generate(t, dtd.NITF(), 100, 2.1, 1)
	parseAll := func() {
		for _, doc := range docs {
			if _, err := xmldoc.ParseBytes(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	parseAll() // warm the pooled parser: scratch sized, labels interned
	if perDoc := testing.AllocsPerRun(5, parseAll) / float64(len(docs)); perDoc > 4 {
		t.Errorf("ParseBytes makes %.1f allocations per document, want at most 4 (nodes, children, text)", perDoc)
	}
}

var sink any

// benchDocs is the benchmark's collection: 100 NITF documents at the text
// scale bench/ uses, ≈ 11 KB each.
func benchDocs(b *testing.B) [][]byte {
	docs := generate(b, dtd.NITF(), 100, 2.1, 1)
	total := 0
	for _, doc := range docs {
		total += len(doc)
	}
	b.SetBytes(int64(total / len(docs)))
	b.ReportAllocs()
	b.ResetTimer()
	return docs
}

func BenchmarkParseBytes(b *testing.B) {
	docs := benchDocs(b)
	for i := 0; i < b.N; i++ {
		sink, _ = xmldoc.ParseBytes(docs[i%len(docs)])
	}
}

func BenchmarkParseReader(b *testing.B) {
	docs := benchDocs(b)
	for i := 0; i < b.N; i++ {
		sink, _ = xmldoc.Parse(bytes.NewReader(docs[i%len(docs)]))
	}
}

// BenchmarkParseGeneral is encoding/xml on the same documents: what every
// parse cost before the tokenizer, and what a declined document still costs.
func BenchmarkParseGeneral(b *testing.B) {
	docs := benchDocs(b)
	for i := 0; i < b.N; i++ {
		sink, _ = xmldoc.ParseGeneral(docs[i%len(docs)])
	}
}

func BenchmarkAppendMarshal(b *testing.B) {
	coll, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 100, TextScale: 2.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, coll.TotalSize())
	b.SetBytes(int64(coll.TotalSize() / coll.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = coll.Docs()[i%coll.Len()].AppendMarshal(buf[:0])
	}
	sink = buf
}
