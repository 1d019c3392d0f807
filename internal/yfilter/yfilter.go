// Package yfilter implements an NFA-based multi-query filter for the simple
// XPath fragment, in the style of YFilter (Diao et al., TODS 2003): all
// pending queries are compiled into one shared-prefix automaton, which is
// then run over document structure to produce each query's matched-document
// list. The paper uses YFilter server-side for exactly this step.
//
// The automaton exposes a stepping API (Start/Step/Accepting) so that the
// same machine drives three consumers: document filtering here, CI-node
// matching for index pruning in package core, and index navigation
// (core.Navigator), which is how clients and the server alike read a query's
// answer.
package yfilter

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// state is one NFA state.
type state struct {
	// byLabel are label-consuming transitions.
	byLabel map[string]int
	// star is the wildcard-consuming transition target, or -1.
	star int
	// desc is the ε-reachable descendant state (for `//` steps), or -1.
	// A descendant state loops on any label.
	desc int
	// selfLoop marks a descendant state, which stays active on any label.
	selfLoop bool
	// accept lists indices of queries accepting in this state.
	accept []int
}

// Filter is a compiled query set. The NFA is immutable after New; the lazy
// DFA memo is guarded by a read/write lock, so one Filter may be stepped
// from many goroutines at once. FilterParallel does not contend on that
// lock: each worker steps through a private stepper (a read-only snapshot of
// the memo plus a worker-local fresh map) and the fresh entries are merged
// back under one write lock after the workers join.
type Filter struct {
	states  []state
	queries []xpath.Path

	// dfa memoises subset-construction steps: key is the encoded state set
	// plus the consumed label. It is lazily filled under mu — read-mostly
	// once the reachable label alphabet has been seen.
	mu  sync.RWMutex
	dfa map[string]StateSet
}

// New compiles a query set into a shared NFA.
func New(queries []xpath.Path) *Filter {
	f := &Filter{
		queries: append([]xpath.Path(nil), queries...),
		dfa:     make(map[string]StateSet),
	}
	f.states = append(f.states, newState()) // state 0: initial
	for qi, q := range queries {
		cur := 0
		for _, step := range q.Steps {
			if step.Axis == xpath.Descendant {
				cur = f.descState(cur)
			}
			cur = f.consume(cur, step.Label)
		}
		f.states[cur].accept = append(f.states[cur].accept, qi)
	}
	return f
}

func newState() state {
	return state{byLabel: make(map[string]int), star: -1, desc: -1}
}

// descState returns (creating if needed) the ε-descendant state of s.
func (f *Filter) descState(s int) int {
	if f.states[s].desc >= 0 {
		return f.states[s].desc
	}
	id := len(f.states)
	ns := newState()
	ns.selfLoop = true
	f.states = append(f.states, ns)
	f.states[s].desc = id
	return id
}

// consume returns (creating if needed) the transition target of s on label.
func (f *Filter) consume(s int, label string) int {
	if label == xpath.Wildcard {
		if f.states[s].star >= 0 {
			return f.states[s].star
		}
		id := len(f.states)
		f.states = append(f.states, newState())
		f.states[s].star = id
		return id
	}
	if t, ok := f.states[s].byLabel[label]; ok {
		return t
	}
	id := len(f.states)
	f.states = append(f.states, newState())
	f.states[s].byLabel[label] = id
	return id
}

// NumQueries reports the number of compiled queries.
func (f *Filter) NumQueries() int { return len(f.queries) }

// NumStates reports the number of NFA states (a size diagnostic).
func (f *Filter) NumStates() int { return len(f.states) }

// Queries returns the compiled queries in index order. Callers must not
// mutate the result.
func (f *Filter) Queries() []xpath.Path { return f.queries }

// StateSet is a sorted, deduplicated set of active NFA states. The zero
// value is the empty set, which no Step can leave.
type StateSet struct {
	ids []int32
}

// Empty reports whether no state is active; once empty, a run can be
// abandoned.
func (s StateSet) Empty() bool { return len(s.ids) == 0 }

// appendKey serialises the set plus a consumed label into a memo key,
// appending to dst. Callers pass a stack-backed buffer and look the key
// up via string(dst), which Go maps resolve without allocating — so a
// memoised Step is allocation-free.
func (s StateSet) appendKey(dst []byte, label string) []byte {
	for _, id := range s.ids {
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16))
	}
	dst = append(dst, 0)
	return append(dst, label...)
}

// keyBuf is the stack-allocated memo-key scratch; state sets deep enough
// to overflow it fall back to one heap buffer per step.
type keyBuf [96]byte

func (s StateSet) key(buf *keyBuf, label string) []byte {
	dst := buf[:0]
	if need := len(s.ids)*3 + 1 + len(label); need > len(buf) {
		dst = make([]byte, 0, need)
	}
	return s.appendKey(dst, label)
}

// Start returns the initial state set: the ε-closure of state 0.
func (f *Filter) Start() StateSet {
	return f.closure([]int32{0})
}

// closure adds ε-reachable descendant states and returns the normalised set.
// A state's ε-edges form a chain (desc), so the closure is the union of the
// chains from ids.
func (f *Filter) closure(ids []int32) StateSet {
	if len(ids) == 0 {
		return StateSet{}
	}
	out := make([]int32, 0, 2*len(ids))
	for _, id := range ids {
		for d := int(id); d >= 0; d = f.states[d].desc {
			out = append(out, int32(d))
		}
	}
	slices.Sort(out)
	return StateSet{ids: slices.Compact(out)}
}

// Step consumes one element label and returns the next state set. Results
// are memoised (lazy DFA), so repeated structure — ubiquitous in documents
// and index tries — costs one map hit per (set, label) pair.
func (f *Filter) Step(s StateSet, label string) StateSet {
	if s.Empty() {
		return s
	}
	var buf keyBuf
	key := s.key(&buf, label)
	f.mu.RLock()
	next, ok := f.dfa[string(key)]
	f.mu.RUnlock()
	if ok {
		return next
	}
	result := f.computeStep(s, label)
	f.mu.Lock()
	f.dfa[string(key)] = result
	f.mu.Unlock()
	return result
}

// computeStep is the un-memoised subset-construction step: the ε-closure of
// every transition the active states have on label. It only reads the
// immutable NFA, so it is safe to call without holding mu.
func (f *Filter) computeStep(s StateSet, label string) StateSet {
	var ids []int32
	for _, id := range s.ids {
		st := &f.states[id]
		if t, ok := st.byLabel[label]; ok {
			ids = append(ids, int32(t))
		}
		if st.star >= 0 {
			ids = append(ids, int32(st.star))
		}
		if st.selfLoop {
			ids = append(ids, id)
		}
	}
	return f.closure(ids)
}

// stepFunc resolves one DFA step; f.Step is the locked shared-memo form,
// stepper.step the lock-free per-worker form.
type stepFunc func(StateSet, string) StateSet

// stepper is a worker-private view of the lazy DFA: seed is a read-only
// snapshot of the shared memo taken before the workers start, fresh collects
// the steps this worker discovered. Workers never touch the Filter's lock;
// their fresh maps are merged into the shared memo after they join.
type stepper struct {
	f     *Filter
	seed  map[string]StateSet
	fresh map[string]StateSet
}

func (st *stepper) step(s StateSet, label string) StateSet {
	if s.Empty() {
		return s
	}
	var buf keyBuf
	key := s.key(&buf, label)
	if next, ok := st.seed[string(key)]; ok {
		return next
	}
	if next, ok := st.fresh[string(key)]; ok {
		return next
	}
	result := st.f.computeStep(s, label)
	st.fresh[string(key)] = result
	return result
}

// snapshotDFA copies the shared memo for use as a stepper seed. The copy is
// taken under the read lock so concurrent Step callers stay safe; afterwards
// the snapshot needs no locking at all.
func (f *Filter) snapshotDFA() map[string]StateSet {
	f.mu.RLock()
	defer f.mu.RUnlock()
	seed := make(map[string]StateSet, len(f.dfa))
	for k, v := range f.dfa {
		seed[k] = v
	}
	return seed
}

// mergeDFA folds worker-discovered steps back into the shared memo, so the
// next FilterParallel (or Step) starts warm.
func (f *Filter) mergeDFA(fresh []map[string]StateSet) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range fresh {
		for k, v := range m {
			if _, ok := f.dfa[k]; !ok {
				f.dfa[k] = v
			}
		}
	}
}

// HasAccepting reports whether any query accepts in the state set. Unlike
// Accepting it allocates nothing, so per-node match checks on client hot
// paths stay allocation-free.
func (f *Filter) HasAccepting(s StateSet) bool {
	for _, id := range s.ids {
		if len(f.states[id].accept) > 0 {
			return true
		}
	}
	return false
}

// Accepting returns the indices of queries accepting in the state set,
// sorted and deduplicated. A nil result means no query matches here.
func (f *Filter) Accepting(s StateSet) []int {
	var out []int
	seen := make(map[int]struct{})
	for _, id := range s.ids {
		for _, qi := range f.states[id].accept {
			if _, ok := seen[qi]; !ok {
				seen[qi] = struct{}{}
				out = append(out, qi)
			}
		}
	}
	sort.Ints(out)
	return out
}

// MatchDocument returns the indices of queries matched by the document.
func (f *Filter) MatchDocument(d *xmldoc.Document) []int {
	return f.matchDocument(d, f.Step)
}

// matchDocument is MatchDocument stepping through the given step resolver
// (the shared locked memo, or a worker-private stepper). It runs the
// automaton down the document's element tree with an explicit stack;
// repeated structure costs one memo hit per element.
func (f *Filter) matchDocument(d *xmldoc.Document, step stepFunc) []int {
	if d.Root == nil {
		return nil
	}
	type frame struct {
		n *xmldoc.Node
		s StateSet
	}
	var out []int
	matched := make([]bool, len(f.queries))
	stack := []frame{{d.Root, f.Start()}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next := step(fr.s, fr.n.Label)
		if next.Empty() {
			continue
		}
		for _, id := range next.ids {
			for _, qi := range f.states[id].accept {
				if !matched[qi] {
					matched[qi] = true
					out = append(out, qi)
				}
			}
		}
		for _, c := range fr.n.Children {
			stack = append(stack, frame{c, next})
		}
	}
	sort.Ints(out)
	return out
}

// Filter evaluates all queries over the collection. The result has one
// sorted DocID slice per query, in query index order.
func (f *Filter) Filter(c *xmldoc.Collection) [][]xmldoc.DocID {
	results := make([][]xmldoc.DocID, len(f.queries))
	for _, d := range c.Docs() {
		for _, qi := range f.MatchDocument(d) {
			results[qi] = append(results[qi], d.ID)
		}
	}
	return results
}

// FilterParallel is Filter with document matching sharded across workers
// goroutines (runtime.GOMAXPROCS(0) when workers <= 0) over the shared
// automaton. Per-document matching — the NFA walk down the element tree —
// dominates the cost and is independent per document, so throughput
// scales with cores. The result is identical to Filter's.
func (f *Filter) FilterParallel(c *xmldoc.Collection, workers int) [][]xmldoc.DocID {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	docs := c.Docs()
	if workers > len(docs) {
		workers = len(docs)
	}
	if workers <= 1 {
		return f.Filter(c)
	}

	// Each worker claims documents by atomic counter and accumulates into
	// its own result set; shards are merged and re-sorted afterwards, which
	// restores the deterministic per-query DocID order. Workers step through
	// private memos (one shared read-only seed snapshot plus a per-worker
	// fresh map) instead of the Filter's locked memo, so DFA lookups — the
	// hottest operation in the walk — never contend; the fresh maps are
	// folded back into the shared memo once the workers join.
	seed := f.snapshotDFA()
	shards := make([][][]xmldoc.DocID, workers)
	fresh := make([]map[string]StateSet, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stepper{f: f, seed: seed, fresh: make(map[string]StateSet)}
			local := make([][]xmldoc.DocID, len(f.queries))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					break
				}
				d := docs[i]
				for _, qi := range f.matchDocument(d, st.step) {
					local[qi] = append(local[qi], d.ID)
				}
			}
			shards[w] = local
			fresh[w] = st.fresh
		}(w)
	}
	wg.Wait()
	f.mergeDFA(fresh)

	results := make([][]xmldoc.DocID, len(f.queries))
	for _, local := range shards {
		for qi, ids := range local {
			results[qi] = append(results[qi], ids...)
		}
	}
	for qi := range results {
		sort.Slice(results[qi], func(i, j int) bool { return results[qi][i] < results[qi][j] })
	}
	return results
}
