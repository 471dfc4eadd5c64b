package rag

import (
	"testing"
	"time"

	"proximity/internal/core"
	"proximity/internal/dataset"
	"proximity/internal/llm"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
	"proximity/internal/workload"
)

// testSetup builds a small MedRAG benchmark with a flat DB.
func testSetup(t *testing.T) (*dataset.Benchmark, *vectordb.FlatIndex) {
	t.Helper()
	bench, err := dataset.NewMedRAG(dataset.MedRAGConfig{
		Questions: 25, Topics: 5, DocsPerTopic: 6, Dim: 128, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := vectordb.NewFlatFromVectors(bench.Corpus.Embeddings, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	return bench, db
}

func buildPipeline(t *testing.T, bench *dataset.Benchmark, db *vectordb.FlatIndex, cache core.Cache, measureRecall bool) *Pipeline {
	t.Helper()
	retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{
		K:       bench.DefaultK,
		Latency: fixedLatency(time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := llm.NewAnswerer(bench.Profile, 42)
	if err != nil {
		t.Fatal(err)
	}
	return &Pipeline{Bench: bench, Retriever: retr, Answerer: ans, MeasureRecall: measureRecall}
}

func TestPipelineValidate(t *testing.T) {
	var p Pipeline
	if err := p.Validate(); err == nil {
		t.Error("empty pipeline should fail validation")
	}
	if _, err := p.Run(workload.Workload{}); err == nil {
		t.Error("Run must propagate validation error")
	}
}

func TestPipelineNoCacheBaseline(t *testing.T) {
	bench, db := testSetup(t)
	p := buildPipeline(t, bench, db, nil, true)
	w, err := workload.UniformVariants(bench, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	run, err := p.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if run.HitRate() != 0 {
		t.Error("baseline hit rate must be 0")
	}
	if run.DBCalls() != w.Len() {
		t.Error("every query must reach the database")
	}
	if run.MeanRecall() != 1 {
		t.Errorf("baseline recall = %v, want 1 (all misses are exact)", run.MeanRecall())
	}
	// With gold passages retrieved, accuracy should approach PGold.
	if acc := run.Accuracy(); acc < bench.Profile.PGold-0.2 {
		t.Errorf("baseline accuracy = %v, suspiciously below PGold %v", acc, bench.Profile.PGold)
	}
	if run.MeanRetrieval() < 900*time.Microsecond {
		t.Errorf("retrieval latency should include the simulated DB time, got %v", run.MeanRetrieval())
	}
}

func TestPipelineCacheImprovesLatencyKeepsAccuracy(t *testing.T) {
	bench, db := testSetup(t)
	w, err := workload.UniformVariants(bench, 4, 5)
	if err != nil {
		t.Fatal(err)
	}

	baseline := buildPipeline(t, bench, db, nil, false)
	baseRun, err := baseline.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	cache, err := core.NewFlat(bench.Dim(), core.Options{Capacity: 100, Tolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	cached := buildPipeline(t, bench, db, cache, true)
	cachedRun, err := cached.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	if cachedRun.HitRate() < 0.4 {
		t.Errorf("hit rate = %v, expected substantial reuse at τ=5", cachedRun.HitRate())
	}
	if cachedRun.MeanRetrieval() >= baseRun.MeanRetrieval() {
		t.Errorf("caching should cut retrieval latency: %v vs %v",
			cachedRun.MeanRetrieval(), baseRun.MeanRetrieval())
	}
	if cachedRun.MeanRecall() < 0.9 {
		t.Errorf("recall = %v, variants should return near-identical documents", cachedRun.MeanRecall())
	}
	if diff := baseRun.Accuracy() - cachedRun.Accuracy(); diff > 0.1 {
		t.Errorf("caching at τ=5 should not cost accuracy: baseline %v cached %v",
			baseRun.Accuracy(), cachedRun.Accuracy())
	}
	if cachedRun.DBCalls() >= baseRun.DBCalls() {
		t.Error("caching should reduce database calls")
	}
}

func TestPipelineHighToleranceDegradesRecall(t *testing.T) {
	bench, db := testSetup(t)
	w, err := workload.UniformVariants(bench, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	// τ=10 admits cross-question matches (inter-question distance ≈6.3).
	cache, err := core.NewFlat(bench.Dim(), core.Options{Capacity: 100, Tolerance: 10})
	if err != nil {
		t.Fatal(err)
	}
	p := buildPipeline(t, bench, db, cache, true)
	run, err := p.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if run.HitRate() < 0.9 {
		t.Errorf("τ=10 should hit almost always, got %v", run.HitRate())
	}
	if run.MeanRecall() > 0.8 {
		t.Errorf("τ=10 recall = %v, should degrade (wrong questions' documents served)", run.MeanRecall())
	}
	// Accuracy should fall toward/below the no-RAG floor.
	if run.Accuracy() > bench.Profile.PGold-0.1 {
		t.Errorf("τ=10 accuracy = %v, expected a collapse below PGold", run.Accuracy())
	}
}

func TestPipelineRejectsForeignWorkload(t *testing.T) {
	bench, db := testSetup(t)
	p := buildPipeline(t, bench, db, nil, false)
	w := workload.Workload{
		Name: "bad",
		Queries: []workload.Query{
			{Question: 999, Embedding: make(vec.Vector, bench.Dim())},
		},
	}
	if _, err := p.Run(w); err == nil {
		t.Error("workload referencing unknown questions should error")
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	bench, db := testSetup(t)
	p := buildPipeline(t, bench, db, nil, false)
	w := workload.Workload{
		Name: "dim-mismatch",
		Queries: []workload.Query{
			{Question: 0, Embedding: vec.Vector{1, 2}},
		},
	}
	if _, err := p.Run(w); err == nil {
		t.Error("retriever errors must propagate")
	}
}

func TestPipelineWithoutAnswerer(t *testing.T) {
	bench, db := testSetup(t)
	retr, err := core.NewCachedRetriever(nil, db, core.RetrieverOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Bench: bench, Retriever: retr}
	w, err := workload.UniformVariants(bench, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := p.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if run.Accuracy() != 0 {
		t.Error("no answerer: accuracy should stay 0")
	}
	if run.DBCalls() != w.Len() {
		t.Error("retrievals must still be recorded")
	}
}

// fixedLatency is a LatencyModel with one constant service time.
type fixedLatency time.Duration

func (f fixedLatency) Lookup() time.Duration { return time.Duration(f) }
