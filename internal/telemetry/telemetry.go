// Package telemetry is the repo's zero-dependency observability layer:
// lock-free log-bucketed latency histograms, a Prometheus-text metrics
// registry, and a pooled sampling request tracer with cross-node
// propagation. Everything is nil-safe — a nil *Telemetry, *Tracer, or
// *Trace turns every call into (at most) a nil check, so instrumented
// hot paths cost nothing when observability is off.
package telemetry

import (
	"context"
	"time"
)

// Stage identifies one timed segment of the retrieval path.
type Stage uint8

const (
	StageCacheLookup    Stage = iota // similarity search over resident entries
	StageCacheFill                   // Put of a fresh result after a miss
	StageCoalesceWait                // follower blocked on an in-flight duplicate
	StageDBSearch                    // vector DB search
	StageNodeRPC                     // HTTP round trip to a cluster shard node
	StageGraphRepair                 // incremental HNSW maintenance pass (hnsw.Repair)
	StageTierWarmLookup              // warm-tier directory probe + vector reads (internal/tier)
	StageTierPromote                 // warm hit re-inserted into the hot tier
	StageTierDemote                  // hot-tier eviction absorbed into the warm tier
	numStages
)

// stageNames are the wire/metric label values, stable across releases.
var stageNames = [numStages]string{
	"cache_lookup",
	"cache_fill",
	"coalesce_wait",
	"db_search",
	"node_rpc",
	"graph_repair",
	"tier_warm_lookup",
	"tier_promote",
	"tier_demote",
}

// String returns the stage's label ("cache_lookup", ...).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// MarshalJSON encodes the stage as its label string.
func (s Stage) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a label string back into a Stage; unknown labels
// decode to StageCacheLookup rather than erroring (forward compat).
func (s *Stage) UnmarshalJSON(b []byte) error {
	name := string(b)
	if len(name) >= 2 && name[0] == '"' {
		name = name[1 : len(name)-1]
	}
	for i, n := range stageNames {
		if n == name {
			*s = Stage(i)
			return nil
		}
	}
	*s = StageCacheLookup
	return nil
}

// StageSet holds one latency histogram per stage. A nil *StageSet is a
// valid no-op receiver.
type StageSet struct {
	hists [numStages]*LatencyHistogram
}

// NewStageSet creates a set with empty histograms, optionally registering
// each under the shared family name in reg.
func NewStageSet(reg *Registry) *StageSet {
	s := &StageSet{}
	for i := range s.hists {
		if reg != nil {
			s.hists[i] = reg.HistogramLabeled(
				MetricStageLatencySeconds,
				"Per-stage latency of the retrieval path.",
				"stage", Stage(i).String(),
			)
		} else {
			s.hists[i] = NewLatencyHistogram()
		}
	}
	return s
}

// Observe records one duration for stage.
func (s *StageSet) Observe(stage Stage, d time.Duration) {
	if s == nil || int(stage) >= len(s.hists) {
		return
	}
	s.hists[stage].Observe(d)
}

// Histogram returns the histogram for stage (nil on a nil set).
func (s *StageSet) Histogram(stage Stage) *LatencyHistogram {
	if s == nil || int(stage) >= len(s.hists) {
		return nil
	}
	return s.hists[stage]
}

// Merge folds other's per-stage counts into s.
func (s *StageSet) Merge(other *StageSet) {
	if s == nil || other == nil {
		return
	}
	for i := range s.hists {
		s.hists[i].Merge(other.hists[i])
	}
}

// StageSnapshot captures every stage's histogram at one instant.
type StageSnapshot [numStages]HistogramSnapshot

// Snapshot copies all stage histograms.
func (s *StageSet) Snapshot() StageSnapshot {
	var out StageSnapshot
	if s == nil {
		return out
	}
	for i := range s.hists {
		out[i] = s.hists[i].Snapshot()
	}
	return out
}

// Options configures a Telemetry hub.
type Options struct {
	// SampleEvery traces 1 in this many requests; <= 0 disables tracing.
	SampleEvery int
	// RingSize bounds the buffer of recent completed traces (default 64).
	RingSize int
}

// Telemetry bundles the process's registry, tracer, and per-stage
// histograms — the single handle threaded through the stack. A nil
// *Telemetry no-ops everywhere, so components accept one unconditionally.
type Telemetry struct {
	Registry *Registry
	Tracer   *Tracer
	Stages   *StageSet
}

// New builds a hub with a fresh registry, tracer, and stage set.
func New(opts Options) *Telemetry {
	reg := NewRegistry()
	return &Telemetry{
		Registry: reg,
		Tracer:   NewTracer(opts.SampleEvery, opts.RingSize),
		Stages:   NewStageSet(reg),
	}
}

// ObserveStage records a stage duration (no-op on nil).
func (t *Telemetry) ObserveStage(stage Stage, d time.Duration) {
	if t == nil {
		return
	}
	t.Stages.Observe(stage, d)
}

// StartTrace samples this request via the hub's tracer (no-op on nil).
func (t *Telemetry) StartTrace(ctx context.Context) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	return t.Tracer.Start(ctx)
}

// StageSnapshot copies the per-stage histograms (zero on nil).
func (t *Telemetry) StageSnapshot() StageSnapshot {
	if t == nil {
		return StageSnapshot{}
	}
	return t.Stages.Snapshot()
}
