package xmldoc

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode/utf8"
)

// Parse reads one XML document from r and returns its element tree.
// Attributes, comments and processing instructions are discarded; character
// data is trimmed and attached to the enclosing element. It reads r to the
// end and is ParseBytes over what it read.
func Parse(r io.Reader) (*Node, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// One allocation: ReadFrom wants MinRead spare bytes to see EOF.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("xmldoc: parse: %w", err)
	}
	return ParseBytes(buf.Bytes())
}

// ParseString is Parse over a string.
func ParseString(s string) (*Node, error) {
	return ParseBytes([]byte(s))
}

// ParseBytes is Parse over a byte slice, which it neither writes to nor
// retains: the returned tree shares no memory with b, so b may be a buffer
// the caller reuses.
//
// Documents in the form Marshal writes — the form every document frame on
// air has — are read by a single-pass tokenizer into three allocations.
// Anything else, malformed input included, is left to encoding/xml, which
// alone defines what parses and with which error.
func ParseBytes(b []byte) (*Node, error) {
	p := parserPool.Get().(*parser)
	defer parserPool.Put(p)
	if p.tokenize(b) {
		return p.build(), nil
	}
	return parseGeneral(b)
}

// parseGeneral is the reference reader: encoding/xml's token stream folded
// into a tree.
func parseGeneral(b []byte) (*Node, error) {
	dec := xml.NewDecoder(bytes.NewReader(b))
	var (
		stack []*Node
		root  *Node
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Label: t.Name.Local}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmldoc: parse: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmldoc: parse: unbalanced end element </%s>", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			text := strings.TrimSpace(string(t))
			if text == "" {
				continue
			}
			top := stack[len(stack)-1]
			if top.Text != "" {
				top.Text += " "
			}
			top.Text += text
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmldoc: parse: unclosed element <%s>", stack[len(stack)-1].Label)
	}
	if root == nil {
		return nil, fmt.Errorf("xmldoc: parse: empty document")
	}
	return root, nil
}

// The tokenizer reads exactly what Marshal writes: <label>, <label/> and
// </label> with ASCII names and nothing else inside a tag, character data
// with the eight escapes xml.EscapeText produces, one non-blank run of it
// per element, one root and nothing around it. On the first byte outside
// that — which covers everything encoding/xml would call an error — it
// declines, and parseGeneral reads the same bytes instead. Declining is
// always safe; accepting input that parseGeneral reads differently is the
// bug FuzzParseDifferential exists to find.

// parser is the tokenizer's scratch, reused through parserPool. Only the
// label table carries over from one document to the next.
type parser struct {
	text   []byte    // every element's decoded, trimmed text, back to back
	recs   []nodeRec // one per element, in document order
	labels map[string]string
}

// nodeRec is what the tokenizer knows about one element: text is
// p.text[textOff:textOff+textLen], and its kids children will fill the
// window starting at kidPos of the document's one child slab.
type nodeRec struct {
	label            string
	parent           int // index in recs, -1 for the root
	textOff, textLen int
	kids, kidPos     int
}

var parserPool = sync.Pool{New: func() any {
	return &parser{labels: make(map[string]string)}
}}

// The label table is bounded in entries and in bytes per entry, so what a
// broadcaster sends cannot grow a client's memory: labels past the bounds
// are simply allocated per node, as every label was before.
const (
	maxInternedLabels   = 1024
	maxInternedLabelLen = 64
)

func (p *parser) intern(name []byte) string {
	if s, ok := p.labels[string(name)]; ok {
		return s
	}
	s := string(name)
	if len(p.labels) < maxInternedLabels && len(s) <= maxInternedLabelLen {
		p.labels[s] = s
	}
	return s
}

// Byte classes of the subset. Names are [A-Za-z_][A-Za-z0-9_.-]*: XML's
// ASCII name characters without ':', which encoding/xml treats as a
// namespace separator. Plain text bytes are copied as they are; the rest of
// the byte range is an escape, a tag, a multi-byte rune or a decline.
var nameStart, nameByte, plainText = func() (start, name, plain [256]bool) {
	for c := 0; c < 256; c++ {
		letter := 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
		start[c] = letter
		name[c] = letter || '0' <= c && c <= '9' || c == '.' || c == '-'
		// Raw '>' is left out because "]]>" is an error in text, raw '\r'
		// because encoding/xml rewrites it.
		plain[c] = 0x20 <= c && c < utf8.RuneSelf && c != '<' && c != '&' && c != '>' ||
			c == '\t' || c == '\n'
	}
	return
}()

// escapes are the entity and character references xml.EscapeText writes.
var escapes = [...]struct {
	ref string
	c   byte
}{
	{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&#34;", '"'}, {"&#39;", '\''},
	{"&#x9;", '\t'}, {"&#xA;", '\n'}, {"&#xD;", '\r'},
}

// unescape matches one of escapes at the head of b: the character it stands
// for and its length, or a zero length.
func unescape(b []byte) (c byte, n int) {
	for _, e := range escapes {
		if len(b) >= len(e.ref) && string(b[:len(e.ref)]) == e.ref {
			return e.c, len(e.ref)
		}
	}
	return 0, 0
}

// tokenize reads b into p.recs and p.text and reports whether all of b was
// one document of the subset. It writes nothing to b and keeps no reference
// to it.
func (p *parser) tokenize(b []byte) bool {
	p.text, p.recs = p.text[:0], p.recs[:0]
	cur := -1 // the open element
	slab := 0 // child-slab entries handed out so far
	for i := 0; ; {
		if i+1 >= len(b) || b[i] != '<' {
			return false
		}
		i++
		if b[i] == '/' {
			if cur < 0 {
				return false
			}
			r := &p.recs[cur]
			i++
			end := i + len(r.label)
			if end >= len(b) || string(b[i:end]) != r.label || b[end] != '>' {
				return false
			}
			i = end + 1
			r.kidPos = slab
			slab += r.kids
			cur = r.parent
		} else {
			start := i
			for i < len(b) && nameByte[b[i]] {
				i++
			}
			if !nameStart[b[start]] || i == len(b) {
				return false
			}
			p.recs = append(p.recs, nodeRec{label: p.intern(b[start:i]), parent: cur})
			if cur >= 0 {
				p.recs[cur].kids++
			}
			switch {
			case b[i] == '>':
				cur = len(p.recs) - 1
			case b[i] == '/' && i+1 < len(b) && b[i+1] == '>':
				i++
			default:
				return false
			}
			i++
		}
		if cur < 0 {
			return i == len(b) // the root has closed
		}
		var ok bool
		if i, ok = p.charData(b, i, &p.recs[cur]); !ok {
			return false
		}
	}
}

// charData reads the character data at b[i:] up to the next tag, which it
// returns the position of, and records it as r's text unless it is blank.
// Decoding comes before trimming, so an escaped tab at either end goes too.
func (p *parser) charData(b []byte, i int, r *nodeRec) (int, bool) {
	seg := len(p.text)
	for {
		run := i
		for i < len(b) && plainText[b[i]] {
			i++
		}
		p.text = append(p.text, b[run:i]...)
		if i == len(b) {
			return i, false
		}
		switch c := b[i]; {
		case c == '<':
			text := bytes.TrimSpace(p.text[seg:])
			if len(text) == 0 {
				p.text = p.text[:seg]
				return i, true
			}
			if r.textLen != 0 {
				return i, false // mixed content
			}
			r.textOff, r.textLen = seg, copy(p.text[seg:], text)
			p.text = p.text[:seg+r.textLen]
			return i, true
		case c == '&':
			e, n := unescape(b[i:])
			if n == 0 {
				return i, false
			}
			p.text = append(p.text, e)
			i += n
		case c >= utf8.RuneSelf:
			// U+FFFE and U+FFFF are the two encodable runes outside XML's
			// character range.
			rn, size := utf8.DecodeRune(b[i:])
			if rn == utf8.RuneError && size == 1 || rn == 0xFFFE || rn == 0xFFFF {
				return i, false
			}
			p.text = append(p.text, b[i:i+size]...)
			i += size
		default:
			return i, false // '>', '\r' or another control byte
		}
	}
}

// build turns a tokenized document into its tree: one slab of nodes, one of
// child pointers that every Children is a window of, one string of text.
func (p *parser) build() *Node {
	text := string(p.text)
	nodes := make([]Node, len(p.recs))
	kids := make([]*Node, len(p.recs)-1)
	for i := range p.recs {
		r, n := &p.recs[i], &nodes[i]
		n.Label = r.label
		n.Text = text[r.textOff : r.textOff+r.textLen]
		if r.kids > 0 {
			// Capacity ends where the window does: a caller's append
			// reallocates instead of writing into a sibling's window.
			n.Children = kids[r.kidPos : r.kidPos : r.kidPos+r.kids]
		}
		if r.parent >= 0 {
			parent := &nodes[r.parent]
			parent.Children = append(parent.Children, n)
		}
	}
	return &nodes[0]
}
