// Package repro is a Go implementation of "Two-Tier Air Indexing for
// On-Demand XML Data Broadcast" (Sun, Yu, Qing, Zhang, Zheng — ICDCS 2009):
// an on-demand wireless broadcast system for XML documents in which the
// server answers simple XPath queries by broadcasting, ahead of each cycle's
// documents, a compact air index built from merged DataGuides, pruned to the
// pending query set, and split into two tiers so that clients can doze
// through almost the entire broadcast.
//
// This root package is the public API: a facade over the internal substrates
// (document model, synthetic generators, XPath engine, NFA filter, index
// core, wire format, schedulers and the discrete-event simulator). The
// typical flow:
//
//	coll, _ := repro.GenerateDocuments(repro.NITFSchema, 100, 1)
//	idx, _ := repro.BuildIndex(coll)
//	q, _ := repro.ParseQuery("/nitf/body//block")
//	res := idx.Lookup(q)                    // → matching document IDs
//	pci, _, _ := idx.Prune([]repro.Query{q}) // → per-cycle pruned index
//
// or, end to end,
//
//	out, _ := repro.Simulate(repro.SimulationConfig{ ... })
//
// The experiment harness that regenerates every table and figure of the
// paper's evaluation is exposed through Experiments / RunExperiment and the
// cmd/bcast-exp binary.
package repro

import (
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Core data model.
type (
	// Document is one XML document with a collection-unique ID.
	Document = xmldoc.Document
	// Node is an element node of a document tree.
	Node = xmldoc.Node
	// DocID identifies a document (2 bytes on air).
	DocID = xmldoc.DocID
	// Collection is the server's immutable document set.
	Collection = xmldoc.Collection
)

// Query language.
type (
	// Query is a parsed simple XPath expression (/, // and * steps).
	Query = xpath.Path
	// QueryStep is one location step of a Query.
	QueryStep = xpath.Step
)

// Index core.
type (
	// Index is a Compact Index (CI) or its pruned form (PCI).
	Index = core.Index
	// IndexNode is one node of an Index.
	IndexNode = core.Node
	// SizeModel fixes the on-air byte widths of index fields.
	SizeModel = core.SizeModel
	// Packing is an index's packet layout on air.
	Packing = core.Packing
	// LookupResult is the outcome of a client-style index navigation.
	LookupResult = core.LookupResult
	// PruneStats summarises a pruning pass.
	PruneStats = core.PruneStats
)

// Tiers of the physical index layout.
const (
	// OneTier embeds document offsets in the index tree.
	OneTier = core.OneTier
	// FirstTier is the offset-free first tier of the two-tier structure.
	FirstTier = core.FirstTier
)

// Broadcast modes.
const (
	// OneTierMode broadcasts the flat baseline index.
	OneTierMode = broadcast.OneTierMode
	// TwoTierMode broadcasts the paper's two-tier organisation.
	TwoTierMode = broadcast.TwoTierMode
)

// BroadcastMode selects the index organisation of a simulation.
type BroadcastMode = broadcast.Mode

// IndexEncoding selects the first tier's wire layout (see
// SimulationConfig.IndexEncoding and BroadcastServerConfig.IndexEncoding).
type IndexEncoding = core.IndexEncoding

// First-tier wire layouts.
const (
	// EncodingNode is the node-pointer stream, the default.
	EncodingNode = core.EncodingNode
	// EncodingSuccinct is the balanced-parentheses succinct tier
	// (two-tier mode only): smaller on air, navigated in place by clients.
	EncodingSuccinct = core.EncodingSuccinct
)

// Simulation types.
type (
	// SimulationConfig parameterises a run (see Simulate).
	SimulationConfig = sim.Config
	// ClientRequest is one query submission with its arrival byte-time.
	ClientRequest = sim.ClientRequest
	// SimulationResult aggregates per-client and per-cycle statistics.
	SimulationResult = sim.Result
	// ClientStats is one client's tuning/access outcome.
	ClientStats = sim.ClientStats
	// Scheduler plans the document content of broadcast cycles.
	Scheduler = schedule.Scheduler
)

// Crash-restart equivalence driver (see RunRestartSim): a deterministic
// cycle-clocked broadcast run over a durability journal, with an optional
// seed-chosen mid-pipeline crash followed by warm recovery.
type (
	// RestartSimConfig parameterises RunRestartSim.
	RestartSimConfig = sim.RestartConfig
	// RestartSimResult carries per-cycle wire fingerprints and pending-set
	// keys — the crash-equivalence evidence — plus crash/recovery telemetry.
	RestartSimResult = sim.RestartResult
	// ScriptedRequest is one admission of a restart-equivalence script.
	ScriptedRequest = sim.ScriptedRequest
)

// Assembly-engine telemetry: the shared cycle-assembly pipeline behind both
// Simulate and StartBroadcastServer reports per-stage wall time and sizes,
// answer-cache hit rate and cycle counters. SimulationResult.Engine and
// BroadcastServer.Stats().Engine carry an EngineMetrics snapshot; a custom
// EngineProbe can additionally be wired through SimulationConfig.Probe or
// BroadcastServerConfig.Probe.
type (
	// EngineMetrics is an aggregated telemetry snapshot.
	EngineMetrics = engine.Metrics
	// EngineStageStats is one pipeline stage's aggregate.
	EngineStageStats = engine.StageStats
	// EngineProbe receives pipeline events as they happen.
	EngineProbe = engine.Probe
	// EngineLimits bounds engine memory (LRU answer/payload caches) and
	// per-cycle build latency; wire it through SimulationConfig.Limits or
	// BroadcastServerConfig.Limits. The pending-set cap is admission's:
	// BroadcastServerConfig.MaxPending.
	EngineLimits = engine.Limits
)

// EngineOverload is the sentinel matched (via errors.Is) by every
// admission-control rejection: the ledger's pending-cap refusals and the
// networked server's FrameReject responses (BroadcastRejectedError).
var EngineOverload = engine.ErrOverload

// Experiment harness types.
type (
	// ExperimentConfig is the reconstructed Table 2 setup.
	ExperimentConfig = exp.Config
	// Experiment is one reproducible table or figure.
	Experiment = exp.Experiment
	// ResultTable is a rendered result table.
	ResultTable = stats.Table
)

// Built-in schema names accepted by GenerateDocuments.
const (
	// NITFSchema is the News Industry Text Format-like document set.
	NITFSchema = "nitf"
	// NASASchema is the NASA astronomy-dataset-like document set.
	NASASchema = "nasa"
)

// DefaultSizeModel returns the paper's §4.1 widths: 2-byte flags and doc
// IDs, 4-byte labels and pointers, 128-byte packets.
func DefaultSizeModel() SizeModel { return core.DefaultSizeModel() }

// DefaultExperimentConfig returns the reconstructed Table 2 defaults.
func DefaultExperimentConfig() ExperimentConfig { return exp.Default() }
