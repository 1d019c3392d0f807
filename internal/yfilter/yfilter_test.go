package yfilter

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func paperDocs(t *testing.T) *xmldoc.Collection {
	t.Helper()
	docs := []*xmldoc.Document{
		xmldoc.NewDocument(1, xmldoc.El("a", xmldoc.El("b", xmldoc.El("a"), xmldoc.El("c")))),
		xmldoc.NewDocument(2, xmldoc.El("a",
			xmldoc.El("b", xmldoc.El("a"), xmldoc.El("c")),
			xmldoc.El("c", xmldoc.El("b")))),
		xmldoc.NewDocument(3, xmldoc.El("a", xmldoc.El("b"), xmldoc.El("c"))),
		xmldoc.NewDocument(4, xmldoc.El("a", xmldoc.El("c", xmldoc.El("a")))),
		xmldoc.NewDocument(5, xmldoc.El("a", xmldoc.El("b"), xmldoc.El("c", xmldoc.El("a")))),
	}
	c, err := xmldoc.NewCollection(docs)
	if err != nil {
		t.Fatalf("NewCollection: %v", err)
	}
	return c
}

// TestFilterPaperQueryTable reproduces the answer table of Fig. 2(b),
// including the duplicated query q6 == q2.
func TestFilterPaperQueryTable(t *testing.T) {
	queries := []xpath.Path{
		xpath.MustParse("/a/b/a"), // q1
		xpath.MustParse("/a/c/a"), // q2
		xpath.MustParse("/a//c"),  // q3
		xpath.MustParse("/a/b"),   // q4
		xpath.MustParse("/a/c/*"), // q5
		xpath.MustParse("/a/c/a"), // q6 (duplicate of q2)
	}
	want := [][]xmldoc.DocID{
		{1, 2},
		{4, 5},
		{1, 2, 3, 4, 5},
		{1, 2, 3, 5},
		{2, 4, 5},
		{4, 5},
	}
	f := New(queries)
	got := f.Filter(paperDocs(t))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Filter() = %v, want %v", got, want)
	}
}

func TestSharedPrefixesCompact(t *testing.T) {
	queries := []xpath.Path{
		xpath.MustParse("/a/b/c"),
		xpath.MustParse("/a/b/d"),
		xpath.MustParse("/a/b"),
	}
	f := New(queries)
	// states: 0(init) + a + b + c + d = 5; shared prefixes must not duplicate.
	if f.NumStates() != 5 {
		t.Errorf("NumStates() = %d, want 5", f.NumStates())
	}
	if f.NumQueries() != 3 {
		t.Errorf("NumQueries() = %d, want 3", f.NumQueries())
	}
}

func TestSteppingAPI(t *testing.T) {
	f := New([]xpath.Path{xpath.MustParse("/a//b")})
	s := f.Start()
	if s.Empty() {
		t.Fatal("Start() empty")
	}
	s = f.Step(s, "a")
	if got := f.Accepting(s); got != nil {
		t.Errorf("accepting after /a = %v, want none", got)
	}
	s2 := f.Step(s, "b")
	if got := f.Accepting(s2); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("accepting after /a/b = %v, want [0]", got)
	}
	s3 := f.Step(f.Step(s, "x"), "b")
	if got := f.Accepting(s3); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("accepting after /a/x/b = %v, want [0]", got)
	}
	dead := f.Step(f.Start(), "z")
	if !dead.Empty() {
		t.Error("stepping off the automaton should empty the set")
	}
	if !f.Step(dead, "a").Empty() {
		t.Error("empty set must absorb")
	}
}

func TestStepMemoisationStable(t *testing.T) {
	f := New([]xpath.Path{xpath.MustParse("/a/b"), xpath.MustParse("/a//c")})
	s := f.Start()
	first := f.Step(s, "a")
	second := f.Step(s, "a")
	if !reflect.DeepEqual(first, second) {
		t.Error("memoised step differs from first computation")
	}
}

func TestEmptyQuerySet(t *testing.T) {
	f := New(nil)
	if got := f.Filter(paperDocs(t)); len(got) != 0 {
		t.Errorf("Filter with no queries = %v, want empty", got)
	}
	s := f.Step(f.Start(), "a")
	if !s.Empty() {
		t.Error("no-query automaton should die after one step")
	}
}

// TestQuickFilterAgreesWithReferenceEvaluator is the differential test
// between the NFA filter and the naive xpath evaluator over random
// collections and random query pools.
func TestQuickFilterAgreesWithReferenceEvaluator(t *testing.T) {
	f := func(seed int64) bool {
		c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 5, Seed: seed, MaxDepth: 7})
		if err != nil {
			return false
		}
		queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 12, MaxDepth: 6, WildcardProb: 0.4, Seed: seed + 1})
		if err != nil {
			return false
		}
		filter := New(queries)
		got := filter.Filter(c)
		for qi, q := range queries {
			want := q.MatchingDocs(c)
			if !reflect.DeepEqual(got[qi], want) {
				t.Logf("query %s: nfa=%v reference=%v", q, got[qi], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickAcceptingMatchesMatchLabels checks that running the automaton
// down an arbitrary label path accepts exactly when the path matcher does.
func TestQuickAcceptingMatchesMatchLabels(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		r := newRand(seed)
		// Random query.
		var q xpath.Path
		steps := 1 + r.Intn(4)
		for i := 0; i < steps; i++ {
			axis := xpath.Child
			if r.Intn(3) == 0 {
				axis = xpath.Descendant
			}
			label := labels[r.Intn(len(labels))]
			if r.Intn(5) == 0 {
				label = xpath.Wildcard
			}
			q.Steps = append(q.Steps, xpath.Step{Axis: axis, Label: label})
		}
		filter := New([]xpath.Path{q})
		// Random label path.
		path := make([]string, 1+r.Intn(6))
		for i := range path {
			path[i] = labels[r.Intn(len(labels))]
		}
		s := filter.Start()
		for _, l := range path {
			s = filter.Step(s, l)
		}
		accepted := len(filter.Accepting(s)) > 0
		return accepted == q.MatchLabels(path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
