package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/dtd"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// The reconstructed Table 2 setup every workload shares (see README).
const (
	poolSize      = 500
	wildcardProb  = 0.1
	maxQueryDepth = 5
	textScale     = 2.1
	meanDocBytes  = 11_000
	cycleCapacity = 100_000
	muxStreams    = 64
)

// bgSend is one scheduled background submission: due this long after the
// generator starts, on this logical stream, for this pool query.
type bgSend struct {
	Due    time.Duration
	Stream int
	Query  int
}

// inputs is everything a workload feeds the program under test, all derived
// from one seed. The program only ever sees these generated values.
type inputs struct {
	seed int64
	// docs is the whole document sequence; the server starts with the first
	// startDocs of them and live workloads add the rest one by one.
	docs      []*xmldoc.Document
	startDocs int
	coll      *xmldoc.Collection // the first startDocs documents
	pool      []xpath.Path
	// answers[i] is pool[i] evaluated directly over all of docs, in ID
	// order (IDs are 1..len(docs) in generation order). It is the oracle
	// the foreground results are checked against; it never touches the
	// engine's filter or index.
	answers [][]xmldoc.DocID
}

// makeInputs generates the collection, the query pool and the oracle answers.
// Sub-seeds are derived from seed by fixed offsets so the three generators
// draw independent streams.
func makeInputs(seed int64, numDocs, startDocs int) (*inputs, error) {
	all, err := gen.Documents(gen.DocConfig{
		Schema:    dtd.ByName("nitf"),
		NumDocs:   numDocs,
		TextScale: textScale,
		Seed:      seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate documents: %w", err)
	}
	in := &inputs{seed: seed, docs: normaliseText(all.Docs(), numDocs*meanDocBytes), startDocs: startDocs}
	if all, err = xmldoc.NewCollection(in.docs); err != nil {
		return nil, err
	}
	if in.coll, err = xmldoc.NewCollection(in.docs[:startDocs]); err != nil {
		return nil, err
	}
	// Queries are drawn over the starting collection, so every pool query
	// has a non-empty answer from the first cycle on.
	in.pool, err = gen.Queries(in.coll, gen.QueryConfig{
		NumQueries:   poolSize,
		MaxDepth:     maxQueryDepth,
		WildcardProb: wildcardProb,
		Seed:         seed + 1_000_003,
	})
	if err != nil {
		return nil, fmt.Errorf("generate queries: %w", err)
	}
	in.answers = make([][]xmldoc.DocID, len(in.pool))
	for i, q := range in.pool {
		in.answers[i] = q.MatchingDocs(all)
		if len(in.answers[i]) == 0 {
			return nil, fmt.Errorf("pool query %s matches no document", q)
		}
	}
	return in, nil
}

// normaliseText rescales every text node by one common factor so the
// documents' serialised sizes sum to exactly target bytes. The generator's
// collections differ by some ±10 % in volume from seed to seed, and bytes on
// air, parse time and heap all follow volume; with the volume pinned, what
// still varies across seeds is structure, per-document proportions and the
// queries. Text grows by repeating itself and shrinks by truncation; markup
// is untouched.
func normaliseText(docs []*xmldoc.Document, target int) []*xmldoc.Document {
	var texts []*string
	total, textTotal := 0, 0
	var walk func(*xmldoc.Node)
	walk = func(n *xmldoc.Node) {
		if n.Text != "" {
			texts = append(texts, &n.Text)
			textTotal += len(n.Text)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, d := range docs {
		total += d.Size()
		walk(d.Root)
	}
	want := textTotal + target - total
	if textTotal == 0 || want <= 0 {
		return docs
	}
	// done/given track the text bytes visited and handed out so far, so the
	// rounding error never accumulates and the last node lands on want.
	done, given := 0, 0
	for _, t := range texts {
		done += len(*t)
		n := int(int64(want)*int64(done)/int64(textTotal)) - given
		given += n
		for len(*t) < n {
			*t += " " + *t
		}
		*t = (*t)[:n]
	}
	// Sizes are cached per Document, so the resized trees get fresh ones.
	out := make([]*xmldoc.Document, len(docs))
	for i, d := range docs {
		out[i] = xmldoc.NewDocument(d.ID, d.Root)
	}
	return out
}

// backgroundSchedule lays out the open-loop submissions for a run of the
// given length: one every 1/rate seconds, streams round-robin, queries
// uniform over the pool.
func (in *inputs) backgroundSchedule(rate float64, length time.Duration) []bgSend {
	n := int(rate * length.Seconds())
	r := rand.New(rand.NewSource(in.seed + 2_000_003))
	out := make([]bgSend, n)
	for i := range out {
		out[i] = bgSend{
			Due:    time.Duration(float64(i) / rate * float64(time.Second)),
			Stream: i % muxStreams,
			Query:  r.Intn(len(in.pool)),
		}
	}
	return out
}

// foregroundRand seeds one foreground client's query picks and think times.
func (in *inputs) foregroundRand(client int) *rand.Rand {
	return rand.New(rand.NewSource(in.seed + 3_000_017 + int64(client)))
}

// fingerprint hashes the generated inputs: every document's serialised
// bytes, every pool query, every oracle answer. Two runs fed the same
// inputs print the same value.
func (in *inputs) fingerprint() uint64 {
	h := fnv.New64a()
	for _, d := range in.docs {
		_, _ = h.Write(d.Marshal())
	}
	for i, q := range in.pool {
		fmt.Fprintf(h, "%s=%v;", q, in.answers[i])
	}
	return h.Sum64()
}
