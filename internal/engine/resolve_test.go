package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
	"repro/internal/yfilter"
)

// liveDocs is a test's own record of the documents an engine should hold.
type liveDocs map[xmldoc.DocID]*xmldoc.Document

func newLiveDocs(c *xmldoc.Collection) liveDocs {
	live := make(liveDocs, c.Len())
	for _, d := range c.Docs() {
		live[d.ID] = d
	}
	return live
}

// collection returns the documents in ID order, the order in which the
// document-side evaluators (yfilter.Filter, xpath.Path.MatchingDocs) emit
// sorted answers.
func (l liveDocs) collection(t testing.TB) *xmldoc.Collection {
	t.Helper()
	ids := make([]xmldoc.DocID, 0, len(l))
	for id := range l {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	docs := make([]*xmldoc.Document, len(ids))
	for i, id := range ids {
		docs[i] = l[id]
	}
	c, err := xmldoc.NewCollection(docs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkCacheAgainstScan compares every cached answer with a fresh scan of the
// documents the engine should hold.
func checkCacheAgainstScan(t *testing.T, e *Engine, live liveDocs) {
	t.Helper()
	coll := live.collection(t)
	for _, en := range e.answers.entries() {
		want := yfilter.New([]xpath.Path{en.query}).Filter(coll)[0]
		if !slices.Equal(en.docs, want) {
			t.Errorf("cached answer of %s = %v, a fresh scan gives %v", en.key, en.docs, want)
		}
	}
}

// TestResolveResultImmutableAcrossUpdates: Resolve hands out the cache's own
// slices and the drivers keep them (a pending request's remaining set, the
// simulator's answer table), so an update must replace a cached answer, never
// write through it — not within its length, not in its spare capacity.
func TestResolveResultImmutableAcrossUpdates(t *testing.T) {
	c, queries := fixture(t, 10, 12)
	e := newEngine(t, c, 100_000)
	live := newLiveDocs(c)
	more, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 2, Seed: 31, FirstID: 200})
	if err != nil {
		t.Fatal(err)
	}
	add := func(d *xmldoc.Document) func() error {
		return func() error { live[d.ID] = d; return e.AddDocument(d) }
	}
	remove := func(id xmldoc.DocID) func() error {
		return func() error { delete(live, id); return e.RemoveDocument(id) }
	}
	updates := []func() error{
		add(more.Docs()[0]),    // an ID above every held one: joins at the tail
		remove(c.Docs()[3].ID), // IDs inside the held answers
		remove(c.Docs()[0].ID),
		add(xmldoc.NewDocument(0, c.Docs()[0].Root)), // an ID below every held one: joins at the head
		add(more.Docs()[1]),
		remove(more.Docs()[0].ID),
	}

	// Before each update, take the answers as a driver would and remember
	// them to the end of their capacity; every slice ever handed out is
	// re-checked after every later update.
	type handedOut struct {
		key         string
		docs        []xmldoc.DocID
		seen, whole []xmldoc.DocID
	}
	var held []handedOut
	changed := 0
	for step, update := range updates {
		answers := resolveAll(e, queries)
		for key, docs := range answers {
			held = append(held, handedOut{key, docs, slices.Clone(docs), slices.Clone(docs[:cap(docs)])})
		}
		if err := update(); err != nil {
			t.Fatal(err)
		}
		for _, h := range held {
			if !slices.Equal(h.docs, h.seen) || !slices.Equal(h.docs[:cap(h.docs)], h.whole) {
				t.Fatalf("update %d wrote a slice Resolve had returned for %s: %v (to capacity %v), was %v (%v)",
					step, h.key, h.docs, h.docs[:cap(h.docs)], h.seen, h.whole)
			}
		}
		for key, docs := range answers {
			if now := e.Resolve(xpath.MustParse(key)); !slices.Equal(now, docs) {
				changed++
			}
		}
		checkCacheAgainstScan(t, e, live)
	}
	if changed < len(updates) {
		t.Fatalf("%d answers changed over %d updates: the patch was not exercised by each", changed, len(updates))
	}
}

// TestInterleavedResolveAndUpdates drives one engine, on one goroutine as its
// owner does, through a seeded interleaving of single and batch resolves, two
// writers adding, removing and re-adding their own IDs with a different tree
// each time, and cycles aired over the current answers of six queries, each
// through a ledger of its own. Every cached answer must equal a fresh scan of
// what the writers have left, at every assembly and at the end.
func TestInterleavedResolveAndUpdates(t *testing.T) {
	for _, bound := range []int{0, 4} {
		t.Run(fmt.Sprintf("cache=%d", bound), func(t *testing.T) {
			c, queries := fixture(t, 12, 24)
			e, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize(),
				Limits: Limits{MaxAnswerCacheEntries: bound}})
			if err != nil {
				t.Fatal(err)
			}
			spare, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 16, Seed: 41, FirstID: 1000})
			if err != nil {
				t.Fatal(err)
			}
			live := newLiveDocs(c)
			rng := rand.New(rand.NewSource(int64(7 + bound)))
			writes, cycles := 0, 0
			for step := 0; step < 600; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // a single query, then a batch
					e.Resolve(queries[rng.Intn(len(queries))])
					lo := rng.Intn(len(queries))
					resolveAll(e, queries[lo:min(lo+5, len(queries))])
				case op < 8: // writer w owns four IDs
					w := rng.Intn(2)
					id := xmldoc.DocID(2000 + 4*w + rng.Intn(4))
					if _, ok := live[id]; ok {
						if err := e.RemoveDocument(id); err != nil {
							t.Fatal(err)
						}
						delete(live, id)
					} else {
						d := xmldoc.NewDocument(id, spare.Docs()[rng.Intn(spare.Len())].Root)
						if err := e.AddDocument(d); err != nil {
							t.Fatal(err)
						}
						live[id] = d
					}
					writes++
				default: // a cycle over the queries' current answers
					_, enc := airOnce(t, e, 0, queries[:6])
					e.Recycle(enc)
					cycles++
					checkCacheAgainstScan(t, e, live)
				}
			}
			if writes < 100 || cycles < 50 {
				t.Fatalf("the interleaving ran %d writes and %d cycles: too few to exercise it", writes, cycles)
			}
			if e.NumDocs() != len(live) {
				t.Fatalf("engine holds %d documents, the writers left %d", e.NumDocs(), len(live))
			}
			checkCacheAgainstScan(t, e, live)
			if bound > 0 && e.answers.len() > bound {
				t.Errorf("bounded cache holds %d entries, cap %d", e.answers.len(), bound)
			}
		})
	}
}

// diffFixture is what the differential scripts draw from: generated NITF and
// NASA trees, a query pool over them, and the labels of the hand-built trees.
type diffFixture struct {
	trees   []*xmldoc.Node
	queries []xpath.Path
}

var diffFix = sync.OnceValue(func() diffFixture {
	nitf, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 5, Seed: 11, MaxDepth: 6})
	if err != nil {
		panic(err)
	}
	nasa, err := gen.Documents(gen.DocConfig{Schema: dtd.NASA(), NumDocs: 5, Seed: 12, MaxDepth: 6, FirstID: 50})
	if err != nil {
		panic(err)
	}
	c, err := xmldoc.NewCollection(append(slices.Clone(nitf.Docs()), nasa.Docs()...))
	if err != nil {
		panic(err)
	}
	queries, err := gen.Queries(c, gen.QueryConfig{NumQueries: 48, MaxDepth: 5, WildcardProb: 0.3, Seed: 13})
	if err != nil {
		panic(err)
	}
	var fix diffFixture
	for _, d := range c.Docs() {
		fix.trees = append(fix.trees, d.Root)
	}
	fix.queries = queries
	return fix
})

// script feeds a differential run its choices, one byte at a time; an
// exhausted script reads zeros, so every prefix of a script is a script.
type script struct {
	b []byte
	i int
}

func (s *script) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

func (s *script) done() bool { return s.i >= len(s.b) }

// tree draws a document tree: a generated NITF/NASA tree, or a hand-built one
// over the labels a, b, c — up to three children a node, labels repeating
// along a path, so `//` steps find matches nested inside matches.
func (s *script) tree() *xmldoc.Node {
	fix := diffFix()
	if k := s.next(); k%4 == 0 {
		return fix.trees[k/4%len(fix.trees)]
	}
	var build func(depth int) *xmldoc.Node
	build = func(depth int) *xmldoc.Node {
		k := s.next()
		n := xmldoc.El(string(rune('a' + k%3)))
		if depth < 5 {
			for i := k / 3 % 4; i > 0; i-- {
				n.Children = append(n.Children, build(depth+1))
			}
		}
		return n
	}
	return build(1)
}

// query draws a query: one of the generated pool, or one to four steps over
// a, b, c and `*` with either axis.
func (s *script) query() xpath.Path {
	fix := diffFix()
	k := s.next()
	if k%3 == 0 {
		return fix.queries[k/3%len(fix.queries)]
	}
	var expr strings.Builder
	for n := 1 + k/3%4; n > 0; n-- {
		step := s.next()
		expr.WriteString([]string{"/", "//"}[step%2])
		expr.WriteString([]string{"a", "b", "c", "*"}[step/2%4])
	}
	return xpath.MustParse(expr.String())
}

// runResolveDifferential interprets a script against two engines — one with
// an unbounded answer cache, one bounded at two entries so that entries are
// evicted between patches — interleaving resolves with adds, removes and
// re-adds of a retired ID under a different tree. After every step, every
// query drawn so far is resolved on both, and each answer — hit, patched or
// freshly read off the CI — must equal both document-side evaluators over the
// live documents.
func runResolveDifferential(t *testing.T, data []byte) {
	s := &script{b: data}
	live := make(liveDocs)
	for id := xmldoc.DocID(1); id <= 3; id++ {
		live[id] = xmldoc.NewDocument(id, s.tree())
	}
	start := live.collection(t)
	var engines [2]*Engine
	for i, bound := range []int{0, 2} {
		e, err := New(Config{Collection: start, Mode: broadcast.TwoTierMode, CycleCapacity: 1 << 20,
			Limits: Limits{MaxAnswerCacheEntries: bound}})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	var asked []xpath.Path

	for step := 0; !s.done() && step < 64; step++ {
		const idSpace = 12
		switch op := s.next(); op % 4 {
		case 0, 1: // resolve: a new query joins the checked set
			if q := s.query(); len(asked) < 10 {
				asked = append(asked, q)
			} else {
				asked[op/4%len(asked)] = q
			}
		case 2: // add, possibly under an ID that was live before with another tree
			d := xmldoc.NewDocument(xmldoc.DocID(1+s.next()%idSpace), s.tree())
			_, dup := live[d.ID]
			for _, e := range engines {
				if err := e.AddDocument(d); (err != nil) != dup {
					t.Fatalf("step %d: AddDocument(%d) with the ID live=%v: err = %v", step, d.ID, dup, err)
				}
			}
			if !dup {
				live[d.ID] = d
			}
		case 3: // remove
			id := xmldoc.DocID(1 + s.next()%idSpace)
			_, ok := live[id]
			for _, e := range engines {
				if err := e.RemoveDocument(id); (err == nil) != ok {
					t.Fatalf("step %d: RemoveDocument(%d) with the ID live=%v: err = %v", step, id, ok, err)
				}
			}
			delete(live, id)
		}

		coll := live.collection(t)
		scan := yfilter.New(asked).Filter(coll)
		for ei, e := range engines {
			for qi, q := range asked {
				docs := e.Resolve(q)
				if !slices.Equal(docs, scan[qi]) {
					t.Fatalf("step %d, engine %d, %s: resolved %v, yfilter.Filter gives %v", step, ei, q, docs, scan[qi])
				}
				if ref := q.MatchingDocs(coll); !slices.Equal(docs, ref) {
					t.Fatalf("step %d, engine %d, %s: resolved %v, MatchingDocs gives %v", step, ei, q, docs, ref)
				}
			}
			if e.NumDocs() != len(live) {
				t.Fatalf("step %d, engine %d: %d documents, want %d", step, ei, e.NumDocs(), len(live))
			}
		}
	}
}

// diffSeedScripts are deterministic random scripts: the seeded test's whole
// input and the fuzzer's starting corpus.
func diffSeedScripts(n int) [][]byte {
	rng := rand.New(rand.NewSource(22))
	scripts := make([][]byte, n)
	for i := range scripts {
		scripts[i] = make([]byte, 64+rng.Intn(192))
		rng.Read(scripts[i])
	}
	return scripts
}

func TestResolveDifferential(t *testing.T) {
	for _, data := range diffSeedScripts(150) {
		runResolveDifferential(t, data)
	}
}

func FuzzResolveDifferential(f *testing.F) {
	for _, data := range diffSeedScripts(8) {
		f.Add(data)
	}
	f.Fuzz(runResolveDifferential)
}

// missFixture is the package benchmarks' collection and query pool: the
// benchmark workloads' shape, 100 NITF documents under a 500-query pool, of
// which the distinct queries are returned (a batch resolves each once).
func missFixture(b testing.TB) (*xmldoc.Collection, []xpath.Path) {
	b.Helper()
	c, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	pool, err := gen.Queries(c, gen.QueryConfig{NumQueries: 500, MaxDepth: 5, WildcardProb: 0.1, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	seen := make(map[string]bool, len(pool))
	distinct := pool[:0]
	for _, q := range pool {
		if !seen[q.String()] {
			seen[q.String()] = true
			distinct = append(distinct, q)
		}
	}
	return c, distinct
}

var benchSink int

// TestResolveMissAllocs pins what a miss costs on the benchmarks' fixture: a
// fresh navigator for the query and one lookup of the CI, about 90
// allocations. A one-entry cache keeps every resolve of the distinct pool a
// miss.
func TestResolveMissAllocs(t *testing.T) {
	c, pool := missFixture(t)
	e, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize(),
		Limits: Limits{MaxAnswerCacheEntries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e.Resolve(pool[len(pool)-1]) // builds the CI
	i := 0
	allocs := testing.AllocsPerRun(len(pool)-1, func() {
		benchSink += len(e.Resolve(pool[i]))
		i++
	})
	if m := e.Metrics(); m.CacheHits != 0 {
		t.Fatalf("%d of %d resolves hit the cache: the test did not measure misses", m.CacheHits, m.CacheHits+m.CacheMisses)
	}
	if allocs > 110 {
		t.Errorf("a resolve miss allocates %.0f times, want at most 110", allocs)
	}
}

// BenchmarkResolveMiss is the cost of answering queries nobody has cached: one
// query (a submission that misses) and the whole pool one query after another
// (a simulator's set-up, a restarted server re-resolving over a drifted
// collection). The ci legs are the engine's path — per miss a fresh
// core.Navigator and one Lookup of the CI. The scan legs are the reference
// the engine's answers are specified against, yfilter.Filter over every
// document; they are not an engine path.
func BenchmarkResolveMiss(b *testing.B) {
	c, pool := missFixture(b)
	for _, leg := range []struct {
		name    string
		queries []xpath.Path
	}{{"one", pool[:1]}, {"pool", pool}} {
		b.Run("scan/"+leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := leg.queries
				if len(q) == 1 {
					q = pool[i%len(pool) : i%len(pool)+1]
				}
				benchSink += len(yfilter.New(q).Filter(c))
			}
		})
		b.Run("ci/"+leg.name, func(b *testing.B) {
			// A one-entry cache keeps every resolve a miss without paying for
			// a new engine per iteration.
			e, err := New(Config{Collection: c, Mode: broadcast.TwoTierMode, CycleCapacity: c.TotalSize(),
				Limits: Limits{MaxAnswerCacheEntries: 1}})
			if err != nil {
				b.Fatal(err)
			}
			e.Resolve(pool[len(pool)-1]) // builds the CI
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(leg.queries) == 1 {
					benchSink += len(e.Resolve(pool[i%len(pool)]))
				} else {
					benchSink += len(resolveAll(e, leg.queries))
				}
			}
			if m := e.Metrics(); m.CacheHits*50 > m.CacheMisses {
				b.Fatalf("%d hits beside %d misses: the leg did not measure misses", m.CacheHits, m.CacheMisses)
			}
		})
	}
}

// BenchmarkAddDocumentWarmCache is the cost of one write to a server with 500
// warm answers, counted until the pool answers again: the add (one NFA pass
// over the new document, a copy of each answer it joins) and a re-resolve of
// the whole pool, which the patch leaves as pure hits.
func BenchmarkAddDocumentWarmCache(b *testing.B) {
	c, pool := missFixture(b)
	e := newEngine(b, c, c.TotalSize())
	resolveAll(e, pool)
	extra, err := gen.Documents(gen.DocConfig{Schema: dtd.NITF(), NumDocs: 8, Seed: 3, FirstID: 5000})
	if err != nil {
		b.Fatal(err)
	}
	misses := e.Metrics().CacheMisses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := extra.Docs()[i%extra.Len()]
		if err := e.AddDocument(d); err != nil {
			b.Fatal(err)
		}
		answers := resolveAll(e, pool)
		benchSink += len(answers)
		b.StopTimer()
		if err := e.RemoveDocument(d.ID); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if got := e.Metrics().CacheMisses; got != misses {
		b.Fatalf("writes caused %d misses on a warm pool", got-misses)
	}
}
