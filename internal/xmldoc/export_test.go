package xmldoc

import (
	"bytes"
	"fmt"
	"reflect"
)

// Hooks for the external test package: gen imports xmldoc, so the tests that
// run over generated collections cannot live in this one.

// RandomTree is randomTree.
var RandomTree = randomTree

// ParseGeneral is the encoding/xml reader ParseBytes falls back to.
var ParseGeneral = parseGeneral

// FastPathAccepts reports whether the tokenizer reads b itself rather than
// declining it to encoding/xml.
func FastPathAccepts(b []byte) bool {
	p := parserPool.Get().(*parser)
	defer parserPool.Put(p)
	return p.tokenize(b)
}

// DiffParse is the differential specification: ParseBytes and the general
// reader must agree on whether b parses and, when it does, on the tree and
// its serialised size; and parsing must leave b as it was. It describes the
// first disagreement, or returns nil.
func DiffParse(b []byte) error {
	orig := bytes.Clone(b)
	got, gotErr := ParseBytes(b)
	if !bytes.Equal(b, orig) {
		return fmt.Errorf("ParseBytes wrote to its input")
	}
	want, wantErr := parseGeneral(b)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Errorf("ParseBytes error %v, encoding/xml error %v (fast path accepts: %v)", gotErr, wantErr, FastPathAccepts(b))
	case gotErr != nil:
		return nil
	case !reflect.DeepEqual(got, want):
		return fmt.Errorf("trees differ:\nParseBytes   %s\nencoding/xml %s", NewDocument(1, got).Marshal(), NewDocument(1, want).Marshal())
	case NewDocument(1, got).Size() != NewDocument(1, want).Size():
		return fmt.Errorf("sizes differ")
	}
	return nil
}
