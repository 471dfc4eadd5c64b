package telemetry

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	want := []string{"cache_lookup", "cache_fill", "coalesce_wait", "db_search", "node_rpc", "graph_repair", "tier_warm_lookup", "tier_promote", "tier_demote"}
	if int(numStages) != len(want) {
		t.Fatalf("%d stages, want %d", numStages, len(want))
	}
	for s := Stage(0); s < numStages; s++ {
		if s.String() != want[s] {
			t.Errorf("stage %d = %q, want %q", s, s.String(), want[s])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Error("out-of-range stage should be unknown")
	}
}

func TestStageJSON(t *testing.T) {
	b, err := json.Marshal(StageDBSearch)
	if err != nil || string(b) != `"db_search"` {
		t.Fatalf("marshal = %s, %v", b, err)
	}
	var s Stage
	if err := json.Unmarshal([]byte(`"node_rpc"`), &s); err != nil || s != StageNodeRPC {
		t.Fatalf("unmarshal = %v, %v", s, err)
	}
	if err := json.Unmarshal([]byte(`"future_stage"`), &s); err != nil || s != StageCacheLookup {
		t.Fatalf("unknown label should decode to cache_lookup, got %v, %v", s, err)
	}
}

func TestStageSet(t *testing.T) {
	s := NewStageSet(nil)
	s.Observe(StageCacheLookup, time.Millisecond)
	s.Observe(StageDBSearch, 2*time.Millisecond)
	s.Observe(Stage(250), time.Second) // out of range: dropped
	if got := s.Histogram(StageCacheLookup).Count(); got != 1 {
		t.Fatalf("cache_lookup count = %d", got)
	}
	if s.Histogram(Stage(250)) != nil {
		t.Fatal("out-of-range histogram should be nil")
	}

	other := NewStageSet(nil)
	other.Observe(StageCacheLookup, 3*time.Millisecond)
	s.Merge(other)
	s.Merge(nil)
	if got := s.Histogram(StageCacheLookup).Count(); got != 2 {
		t.Fatalf("merged cache_lookup count = %d, want 2", got)
	}

	snap := s.Snapshot()
	if snap[StageCacheLookup].N != 2 || snap[StageDBSearch].N != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	s.Observe(StageDBSearch, time.Millisecond)
	if snap[StageDBSearch].N != 1 {
		t.Fatalf("snapshot changed after a later observe: %+v", snap[StageDBSearch])
	}

	// nil set is inert.
	var nilSet *StageSet
	nilSet.Observe(StageCacheLookup, time.Second)
	nilSet.Merge(s)
	if nilSet.Histogram(StageCacheLookup) != nil {
		t.Fatal("nil set histogram should be nil")
	}
	_ = nilSet.Snapshot()
}

func TestTelemetryHub(t *testing.T) {
	hub := New(Options{SampleEvery: 1, RingSize: 8})
	ctx, trace := hub.StartTrace(context.Background())
	if trace == nil || FromContext(ctx) != trace {
		t.Fatal("hub did not start a trace")
	}
	trace.Finish()
	hub.ObserveStage(StageCacheLookup, time.Millisecond)
	if hub.StageSnapshot()[StageCacheLookup].N != 1 {
		t.Fatal("hub stage observation lost")
	}

	// Stage histograms are registered in the hub's registry.
	var sb strings.Builder
	hub.Registry.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `proximity_stage_latency_seconds_count{stage="cache_lookup"} 1`) {
		t.Fatalf("hub registry missing stage series\n%s", sb.String())
	}

	// nil hub no-ops.
	var nilHub *Telemetry
	nilHub.ObserveStage(StageDBSearch, time.Second)
	ctx2, trace2 := nilHub.StartTrace(context.Background())
	if trace2 != nil || ctx2 != context.Background() {
		t.Fatal("nil hub should not trace")
	}
	_ = nilHub.StageSnapshot()
}

func TestRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	RegisterRuntimeMetrics(nil) // no-op
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"proximity_goroutines",
		"proximity_heap_alloc_bytes",
		"proximity_gc_cycles_total",
		"proximity_gc_last_pause_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %s", want)
		}
	}
}

func TestReadBuildInfo(t *testing.T) {
	bi := ReadBuildInfo()
	if bi.GoVersion == "" || bi.GoVersion == "unknown" {
		t.Fatalf("go version = %q", bi.GoVersion)
	}
	if bi.Module == "" || bi.Version == "" {
		t.Fatalf("build info = %+v", bi)
	}
}

func TestFromContextNil(t *testing.T) {
	if FromContext(nil) != nil {
		t.Fatal("nil context should yield nil trace")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("bare context should yield nil trace")
	}
}
