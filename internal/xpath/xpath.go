// Package xpath implements the simple XPath fragment used by the paper's
// workload: absolute path expressions built from the child axis `/`, the
// descendant axis `//` and the wildcard label `*`, without predicates.
//
//	P  ::= ('/' | '//') N  P?
//	N  ::= label | '*'
//
// A query selects elements; a document satisfies a query if some element's
// root-to-element label path matches the expression. The package provides
// parsing, printing, and a reference evaluator over documents. High-volume
// multi-query filtering is done by package yfilter.
package xpath

import (
	"fmt"

	"repro/internal/xmldoc"
)

// Axis is the relationship between a step and the previous one.
type Axis int

const (
	// Child is the `/` axis.
	Child Axis = iota + 1
	// Descendant is the `//` axis (descendant-or-self::node()/child::N).
	Descendant
)

// String returns the XPath spelling of the axis.
func (a Axis) String() string {
	switch a {
	case Child:
		return "/"
	case Descendant:
		return "//"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// Wildcard is the label matching any element name.
const Wildcard = "*"

// Step is one location step.
type Step struct {
	Axis  Axis
	Label string // element name, or Wildcard
}

// MatchesLabel reports whether the step's node test accepts the given label.
func (s Step) MatchesLabel(label string) bool {
	return s.Label == Wildcard || s.Label == label
}

// Path is a parsed query. The zero value matches nothing.
type Path struct {
	Steps []Step
}

// String renders the path in XPath syntax, the inverse of Parse. The
// 64-byte buffer stays on the stack, so a path that fits costs one string.
func (p Path) String() string { return string(p.AppendString(make([]byte, 0, 64))) }

// AppendString appends the path's XPath syntax, as String renders it, to b.
func (p Path) AppendString(b []byte) []byte {
	for _, s := range p.Steps {
		b = append(b, s.Axis.String()...)
		b = append(b, s.Label...)
	}
	return b
}

// Equal reports structural equality of two paths.
func (p Path) Equal(q Path) bool {
	if len(p.Steps) != len(q.Steps) {
		return false
	}
	for i := range p.Steps {
		if p.Steps[i] != q.Steps[i] {
			return false
		}
	}
	return true
}

// Depth reports the number of location steps.
func (p Path) Depth() int { return len(p.Steps) }

// HasWildcards reports whether the path contains `//` or `*`.
func (p Path) HasWildcards() bool {
	for _, s := range p.Steps {
		if s.Axis == Descendant || s.Label == Wildcard {
			return true
		}
	}
	return false
}

// Parse parses an absolute simple XPath expression such as
// "/a/b", "/a//c" or "/a/c/*".
func Parse(expr string) (Path, error) {
	if expr == "" {
		return Path{}, fmt.Errorf("xpath: empty expression")
	}
	if expr[0] != '/' {
		return Path{}, fmt.Errorf("xpath: %q: expression must be absolute", expr)
	}
	var p Path
	i := 0
	for i < len(expr) {
		axis := Child
		if expr[i] != '/' {
			return Path{}, fmt.Errorf("xpath: %q: expected axis at offset %d", expr, i)
		}
		i++
		if i < len(expr) && expr[i] == '/' {
			axis = Descendant
			i++
		}
		start := i
		for i < len(expr) && expr[i] != '/' {
			i++
		}
		label := expr[start:i]
		if label == "" {
			return Path{}, fmt.Errorf("xpath: %q: empty step at offset %d", expr, start)
		}
		if label != Wildcard && !validLabel(label) {
			return Path{}, fmt.Errorf("xpath: %q: invalid label %q", expr, label)
		}
		p.Steps = append(p.Steps, Step{Axis: axis, Label: label})
	}
	return p, nil
}

// MustParse is Parse for static expressions; it panics on error and is meant
// for tests and package-level literals.
func MustParse(expr string) Path {
	p, err := Parse(expr)
	if err != nil {
		panic(err)
	}
	return p
}

// validLabel accepts XML-name-ish labels: letters, digits, '.', '-', '_'.
func validLabel(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9', r == '.', r == '-':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(s) > 0
}

// MatchLabels reports whether the path matches the full label path exactly,
// i.e. whether an element with root-to-element labels `labels` is selected.
func (p Path) MatchLabels(labels []string) bool {
	return matchFrom(p.Steps, labels, 0, 0)
}

func matchFrom(steps []Step, labels []string, si, li int) bool {
	if si == len(steps) {
		return li == len(labels)
	}
	st := steps[si]
	switch st.Axis {
	case Child:
		return li < len(labels) && st.MatchesLabel(labels[li]) && matchFrom(steps, labels, si+1, li+1)
	case Descendant:
		for j := li; j < len(labels); j++ {
			if st.MatchesLabel(labels[j]) && matchFrom(steps, labels, si+1, j+1) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// MatchesDocument reports whether any element of the document is selected by
// the path. This is the reference evaluator used for differential testing of
// the NFA filter and the air-index lookup.
func (p Path) MatchesDocument(d *xmldoc.Document) bool {
	if len(p.Steps) == 0 || d.Root == nil {
		return false
	}
	found := false
	d.WalkPaths(func(labels []string, _ *xmldoc.Node) {
		if !found && p.MatchLabels(labels) {
			found = true
		}
	})
	return found
}

// MatchingDocs evaluates the path over a collection and returns the IDs of
// satisfying documents in collection order.
func (p Path) MatchingDocs(c *xmldoc.Collection) []xmldoc.DocID {
	var ids []xmldoc.DocID
	for _, d := range c.Docs() {
		if p.MatchesDocument(d) {
			ids = append(ids, d.ID)
		}
	}
	return ids
}
