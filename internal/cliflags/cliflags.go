// Package cliflags is the flag block the commands share: the broadcast
// layout, the document collection and the engine limits. Admission (the
// pending cap, the uplink rate, the adaptive controller) is a live server's
// alone, and bcast-serve registers its flags itself. Each group
// registers into a command's own flag.FlagSet with the values it holds as
// the defaults, so a command states its defaults once, in the struct literal
// it registers.
package cliflags

import (
	"flag"
	"fmt"
	"slices"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/xmldoc"
)

// Layout is the shape of the broadcast program.
type Layout struct {
	Mode      broadcast.Mode
	Encoding  core.IndexEncoding
	Channels  int
	Compress  bool
	Scheduler string
	Capacity  int
}

// Register adds -mode, -index-enc, -channels, -compress, -scheduler and
// -capacity to fs, leaving out the flags named in omit (a command that has
// no such choice).
func (l *Layout) Register(fs *flag.FlagSet, omit ...string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.TextVar(&l.Mode, "mode", l.Mode, "index organisation: one-tier or two-tier")
	all.TextVar(&l.Encoding, "index-enc", l.Encoding, "first-tier wire layout: node or succinct (two-tier only)")
	all.IntVar(&l.Channels, "channels", l.Channels, "parallel broadcast channels K at fixed aggregate bandwidth (two-tier only)")
	all.BoolVar(&l.Compress, "compress", l.Compress, "per-frame DEFLATE on the downlink (simulated runs account cycles at compressed air size)")
	all.StringVar(&l.Scheduler, "scheduler", l.Scheduler, "scheduler: leelo, fcfs, mrf or rxw")
	all.IntVar(&l.Capacity, "capacity", l.Capacity, "cycle document budget in bytes")
	all.VisitAll(func(f *flag.Flag) {
		if !slices.Contains(omit, f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
}

// Source is where the broadcast documents come from: a directory of .xml
// files, or a collection generated from a built-in schema.
type Source struct {
	Schema string
	Data   string
	Docs   int
	Seed   int64
}

// Register adds -schema, -data, -docs and -seed to fs.
func (s *Source) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Schema, "schema", s.Schema, "document schema: nitf or nasa")
	fs.StringVar(&s.Data, "data", s.Data, "directory of .xml files to broadcast (overrides -schema/-docs)")
	fs.IntVar(&s.Docs, "docs", s.Docs, "number of generated documents")
	fs.Int64Var(&s.Seed, "seed", s.Seed, "random seed")
}

// Load reads the -data directory or, without one, generates the collection.
func (s *Source) Load() (*xmldoc.Collection, error) {
	if s.Data != "" {
		return xmldoc.LoadDir(s.Data)
	}
	schema := dtd.ByName(s.Schema)
	if schema == nil {
		return nil, fmt.Errorf("unknown schema %q (want nitf or nasa)", s.Schema)
	}
	return gen.Documents(gen.DocConfig{Schema: schema, NumDocs: s.Docs, Seed: s.Seed})
}

// Limits are the engine's memory bounds; zero means unlimited.
// The payload cache is set in megabytes.
type Limits struct {
	engine.Limits
	PayloadMB int
}

// Register adds -answer-cache and -payload-cache to fs.
func (l *Limits) Register(fs *flag.FlagSet) {
	fs.IntVar(&l.MaxAnswerCacheEntries, "answer-cache", l.MaxAnswerCacheEntries, "max memoized query answers, LRU-evicted (0 = unlimited)")
	fs.IntVar(&l.PayloadMB, "payload-cache", l.PayloadMB, "max cached document megabytes (payloads plus, when compressing, their envelopes), LRU-evicted (0 = unlimited)")
}

// Engine is the engine's limits with the payload cache in bytes.
func (l Limits) Engine() engine.Limits {
	e := l.Limits
	e.MaxPayloadCacheBytes = l.PayloadMB << 20
	return e
}
