package xmldoc

import (
	"bytes"
	"encoding/xml"
)

// Marshal serialises the document as a compact XML byte string (no
// indentation, no XML declaration). The serialised length is what Size
// reports and what the broadcast scheduler budgets against.
func (d *Document) Marshal() []byte {
	return d.AppendMarshal(make([]byte, 0, d.size))
}

// AppendMarshal appends the document's serialisation — the bytes Marshal
// returns — to dst and returns the extended slice.
func (d *Document) AppendMarshal(dst []byte) []byte {
	if d.Root != nil {
		dst = appendNode(dst, d.Root)
	}
	return dst
}

func appendNode(dst []byte, n *Node) []byte {
	dst = append(dst, '<')
	dst = append(dst, n.Label...)
	if n.Text == "" && len(n.Children) == 0 {
		return append(dst, "/>"...)
	}
	dst = append(dst, '>')
	if n.Text != "" {
		dst = appendText(dst, n.Text)
	}
	for _, c := range n.Children {
		dst = appendNode(dst, c)
	}
	dst = append(dst, "</"...)
	dst = append(dst, n.Label...)
	return append(dst, '>')
}

// appendText appends s escaped as xml.EscapeText escapes it. Text that is
// all printable ASCII with nothing to escape is that already.
func appendText(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7F || c == '&' || c == '<' || c == '>' || c == '"' || c == '\'' {
			buf := bytes.NewBuffer(dst)
			// Errors from EscapeText are impossible on a bytes.Buffer.
			_ = xml.EscapeText(buf, []byte(s))
			return buf.Bytes()
		}
	}
	return append(dst, s...)
}
