package xmldoc

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// subsetCases name every line the tokenizer draws. fast says which side of
// it the input is on; whichever side, ParseBytes must agree with
// encoding/xml (DiffParse). The first eight are FuzzParse's seed corpus.
var subsetCases = []struct {
	name string
	give string
	fast bool
}{
	{"seed leaf", "<a/>", true},
	{"seed nested text", "<a><b>t</b></a>", true},
	{"seed truncated tag", "<a", false},
	{"seed empty", "", false},
	{"seed attribute and comment", "<a x='1'><!-- c --><b/></a>", false},
	{"seed escape", "<a>&lt;</a>", true},
	{"seed crossed tags", "<a><b></a></b>", false},
	{"seed two roots", "<a/><b/>", false},

	{"open close", "<a></a>", true},
	{"nested", "<a><b><c/></b><d>x</d></a>", true},
	{"text before first child", "<a>t<b/></a>", true},
	{"text after a child", "<a><b/>t</a>", true},
	{"all eight escapes", "<a>&lt;&gt;&amp;&#34;&#39;x&#x9;&#xA;&#xD;y</a>", true},
	{"decoded then trimmed", "<a>&#x9;x&#xA;</a>", true},
	{"escaped whitespace only", "<a>&#x9;&#xD; </a>", true},
	{"whitespace only", "<a> \n\t</a>", true},
	{"whitespace between children", "<a> <b/>\n<c>x</c>\t</a>", true},
	{"interior whitespace kept", "<a>x \n y</a>", true},
	{"unicode space trimmed", "<a>\u00a0\u0085x\u2003</a>", true},
	{"non-ASCII text", "<a>h\u00e9llo \u4e16\u754c \U00010000 \U0010ffff</a>", true},
	{"replacement character", "<a>\ufffd</a>", true},
	{"DEL", "<a>\x7f</a>", true},
	{"every name byte", "<_a.b-c9Z><B/></_a.b-c9Z>", true},
	{"deep", strings.Repeat("<a>", 300) + "x" + strings.Repeat("</a>", 300), true},

	{"mixed content", "<a>x<b/>y</a>", false},
	{"mixed content with blank between", "<a>x<b/> <c/>y</a>", false},
	{"text before root", "x<a/>", false},
	{"text after root", "<a/>x", false},
	{"space before root", " <a/>", false},
	{"newline after root", "<a/>\n", false},
	{"byte order mark", "\ufeff<a/>", false},
	{"unclosed root", "<a>", false},
	{"unclosed child", "<a><b></b>", false},
	{"unclosed text", "<a>x", false},
	{"mismatched end", "<a></b>", false},
	{"end tag longer", "<a></ab>", false},
	{"end tag shorter", "<ab></a>", false},
	{"end tag first", "</a>", false},
	{"empty start name", "<>", false},
	{"empty end name", "<a></>", false},
	{"lone <", "<", false},
	{"garbage tail", "<a><", false},
	{"unterminated end tag", "<a></a", false},
	{"unterminated self-close", "<a/", false},
	{"attribute", `<a x="1"/>`, false},
	{"space in start tag", "<a ></a>", false},
	{"space in self-closing tag", "<a />", false},
	{"space in end tag", "<a></a >", false},
	{"newline in tag", "<a\n/>", false},
	{"colon in name", "<x:a/>", false},
	{"leading colon", "<:a/>", false},
	{"non-ASCII name", "<\u00e9/>", false},
	{"non-ASCII name tail", "<a\u00e9/>", false},
	{"digit first", "<1a/>", false},
	{"dash first", "<-a/>", false},
	{"dot first", "<.a/>", false},
	{"comment", "<a><!-- c --></a>", false},
	{"doctype", "<!DOCTYPE a><a/>", false},
	{"declaration", `<?xml version="1.0"?><a/>`, false},
	{"processing instruction", "<a><?p x?></a>", false},
	{"cdata", "<a><![CDATA[x]]></a>", false},
	{"raw >", "<a>x>y</a>", false},
	{"cdata end in text", "<a>]]></a>", false},
	{"raw CR", "<a>x\ry</a>", false},
	{"raw CRLF", "<a>x\r\ny</a>", false},
	{"NUL", "<a>\x00</a>", false},
	{"control byte", "<a>\x1f</a>", false},
	{"invalid UTF-8", "<a>\xff</a>", false},
	{"overlong UTF-8", "<a>\xc0\x80</a>", false},
	{"truncated UTF-8", "<a>\xe2\x82</a>", false},
	{"encoded surrogate", "<a>\xed\xa0\x80</a>", false},
	{"U+FFFE", "<a>\ufffe</a>", false},
	{"U+FFFF", "<a>\uffff</a>", false},
	{"unknown entity", "<a>&foo;</a>", false},
	{"unterminated entity", "<a>&lt</a>", false},
	{"bare ampersand", "<a>&</a>", false},
	{"ampersand at end", "<a>&", false},
	{"apos", "<a>&apos;</a>", false},
	{"quot", "<a>&quot;</a>", false},
	{"decimal reference", "<a>&#60;</a>", false},
	{"lower-case hex reference", "<a>&#xa;</a>", false},
	{"zero-padded reference", "<a>&#x0A;</a>", false},
	{"reference to NUL", "<a>&#x0;</a>", false},
	{"reference to a surrogate", "<a>&#xD800;</a>", false},
	{"reference past U+10FFFF", "<a>&#x110000;</a>", false},
	{"reference to U+FFFE", "<a>&#xFFFE;</a>", false},
	{"reference overflowing 64 bits", "<a>&#x10000000000000000;</a>", false},
}

func TestParseSubsetCases(t *testing.T) {
	for _, tt := range subsetCases {
		t.Run(tt.name, func(t *testing.T) {
			if err := DiffParse([]byte(tt.give)); err != nil {
				t.Errorf("%q: %v", tt.give, err)
			}
			if got := FastPathAccepts([]byte(tt.give)); got != tt.fast {
				t.Errorf("%q: tokenizer accepts = %v, want %v", tt.give, got, tt.fast)
			}
		})
	}
}

// FuzzParseDifferential is the tokenizer's specification: on any bytes,
// ParseBytes and encoding/xml accept or reject together and build the same
// tree.
func FuzzParseDifferential(f *testing.F) {
	for _, tt := range subsetCases {
		f.Add([]byte(tt.give))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(NewDocument(1, randomTree(r, 4)).Marshal())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := DiffParse(b); err != nil {
			t.Fatalf("%q: %v", b, err)
		}
	})
}

func TestParseBytesDoesNotAliasInput(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		want := randomTree(r, 4)
		b := NewDocument(1, want).Marshal()
		if !FastPathAccepts(b) {
			t.Fatalf("tokenizer declined %q", b)
		}
		got, err := ParseBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		// The netcast client's next frame lands in the same buffer, and its
		// parse in the same pooled scratch.
		for j := range b {
			b[j] = 'X'
		}
		if _, err := ParseBytes([]byte("<other>text of another document</other>")); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tree changed when the input was overwritten:\ngot  %s\nwant %s",
				NewDocument(1, got).Marshal(), NewDocument(1, want).Marshal())
		}
	}
}

func TestChildrenAppendDoesNotClobberSibling(t *testing.T) {
	root, err := ParseBytes([]byte("<a><b><c/></b><d><e/><f/></d><g/></a>"))
	if err != nil {
		t.Fatal(err)
	}
	want := NewDocument(1, root).Marshal()
	// Every Children is a window of one slab; none may have room to grow
	// into the next.
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if n.Children != nil {
			_ = append(n.Children, El("intruder"))
		}
	}
	walk(root)
	if got := NewDocument(1, root).Marshal(); string(got) != string(want) {
		t.Errorf("append to a Children slice wrote into a sibling's:\ngot  %s\nwant %s", got, want)
	}
}

func TestInternTableIsBounded(t *testing.T) {
	p := &parser{labels: make(map[string]string)}
	long := strings.Repeat("x", maxInternedLabelLen+1)
	if !p.tokenize([]byte("<" + long + "/>")) {
		t.Fatal("tokenizer declined a long label")
	}
	if len(p.labels) != 0 {
		t.Errorf("a %d-byte label was interned", len(long))
	}
	for i := 0; i < 2*maxInternedLabels; i++ {
		if !p.tokenize([]byte(fmt.Sprintf("<l%d/>", i))) {
			t.Fatal("tokenizer declined a label")
		}
	}
	if len(p.labels) != maxInternedLabels {
		t.Errorf("label table holds %d entries, want it to stop at %d", len(p.labels), maxInternedLabels)
	}
	// Past the bound labels still parse, uninterned.
	if root := p.build(); root.Label != fmt.Sprintf("l%d", 2*maxInternedLabels-1) {
		t.Errorf("label past the bound = %q", root.Label)
	}
}
