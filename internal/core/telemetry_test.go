package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"proximity/internal/telemetry"
	"proximity/internal/vec"
)

// TestRetrieveContextStagesAndSpans verifies that a traced retrieval
// records cache_lookup / db_search / cache_fill spans and that the
// telemetry hub's stage histograms see both the miss and the hit.
func TestRetrieveContextStagesAndSpans(t *testing.T) {
	db := lineDB(t, 10)
	cache := mustFlat(t, 1, Options{Capacity: 4, Tolerance: 0.5})
	tel := telemetry.New(telemetry.Options{SampleEvery: 1})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{K: 3, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}

	ctx, trace := tel.StartTrace(context.Background())
	res, err := r.RetrieveContext(ctx, vec.Vector{2.1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("first retrieval must miss")
	}
	spans := trace.Spans()
	trace.Finish()
	wantStages := []telemetry.Stage{
		telemetry.StageCacheLookup, telemetry.StageDBSearch, telemetry.StageCacheFill,
	}
	if len(spans) != len(wantStages) {
		t.Fatalf("miss trace has %d spans (%v), want %d", len(spans), spans, len(wantStages))
	}
	for i, want := range wantStages {
		if spans[i].Stage != want {
			t.Errorf("span %d stage = %v, want %v", i, spans[i].Stage, want)
		}
	}

	ctx, trace = tel.StartTrace(context.Background())
	res, err = r.RetrieveContext(ctx, vec.Vector{2.3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("similar retrieval should hit")
	}
	spans = trace.Spans()
	trace.Finish()
	if len(spans) != 1 || spans[0].Stage != telemetry.StageCacheLookup {
		t.Fatalf("hit trace spans = %v, want one cache_lookup", spans)
	}

	if n := stageCount(t, tel.Registry, telemetry.StageCacheLookup); n != 2 {
		t.Errorf("cache_lookup observations = %d, want 2", n)
	}
	searches, fill := stageCount(t, tel.Registry, telemetry.StageDBSearch), stageCount(t, tel.Registry, telemetry.StageCacheFill)
	if searches != 1 || fill != 1 {
		t.Errorf("db_search/cache_fill = %d/%d, want 1/1", searches, fill)
	}

	// The ring served the two finished traces, newest first.
	recent := tel.Tracer.Recent(0)
	if len(recent) != 2 {
		t.Fatalf("ring has %d traces, want 2", len(recent))
	}
}

// TestRetrieveUntracedUnchanged pins that the plain Retrieve path with
// no telemetry behaves identically (no spans, no observations, no cost
// beyond nil checks).
func TestRetrieveUntracedUnchanged(t *testing.T) {
	db := lineDB(t, 10)
	cache := mustFlat(t, 1, Options{Capacity: 4, Tolerance: 0.5})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Telemetry() != nil {
		t.Fatal("unset telemetry should be nil")
	}
	if _, err := r.Retrieve(vec.Vector{1.0}); err != nil {
		t.Fatal(err)
	}
	res, err := r.Retrieve(vec.Vector{1.1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("expected a hit")
	}
}

// stageCount reads stage's observation count from reg's Prometheus
// exposition, where the stage histograms are published.
func stageCount(t *testing.T, reg *telemetry.Registry, stage telemetry.Stage) int64 {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	series := fmt.Sprintf("%s_count{stage=%q} ", telemetry.MetricStageLatencySeconds, stage)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("the exposition has no %s series", series)
	return 0
}
