package workload

import (
	"slices"
	"testing"

	"proximity/internal/core"
	"proximity/internal/dataset"
)

func TestBurstyValidation(t *testing.T) {
	b := testBench(t) // 30 questions
	if _, err := Bursty(b, BurstyConfig{Total: 0}); err == nil {
		t.Error("total 0 should error")
	}
	if _, err := Bursty(b, BurstyConfig{Total: 10, WorkingSet: 100}); err == nil {
		t.Error("oversized working set should error")
	}
}

func TestBurstyShape(t *testing.T) {
	b := testBench(t)
	w, err := Bursty(b, BurstyConfig{Total: 400, BurstLength: 50, WorkingSet: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 400 {
		t.Fatalf("Len = %d", w.Len())
	}
	// Within one burst only the working set appears.
	for burst := 0; burst < 8; burst++ {
		qs := make(map[int]struct{})
		for i := burst * 50; i < (burst+1)*50; i++ {
			qs[w.Queries[i].Question] = struct{}{}
		}
		if len(qs) > 5 {
			t.Errorf("burst %d touched %d questions, working set is 5", burst, len(qs))
		}
	}
	// Surface forms stay unique, so no two embeddings are equal.
	seen := make(map[string]bool, w.Len())
	for i, q := range w.Queries {
		k := embeddingKey(q.Embedding)
		if seen[k] {
			t.Fatalf("query %d repeats an earlier paraphrase's embedding", i)
		}
		seen[k] = true
	}
}

func TestBurstyDeterminism(t *testing.T) {
	b := testBench(t)
	w1, err := Bursty(b, BurstyConfig{Total: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Bursty(b, BurstyConfig{Total: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1.Queries {
		if !slices.Equal(w1.Queries[i].Embedding, w2.Queries[i].Embedding) {
			t.Fatal("same seed must generate the same stream")
		}
	}
}

// Validates the paper's §3.3.2 claim: under bursty traffic with strong
// temporal locality, LRU outperforms FIFO, because a cache smaller than
// the cumulative question set must preferentially retain the entries the
// current burst keeps touching.
func TestBurstyLRUBeatsFIFO(t *testing.T) {
	bench, err := dataset.NewMedRAG(dataset.MedRAGConfig{
		Questions: 60, Topics: 10, DocsPerTopic: 4, Dim: 128, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := Bursty(bench, BurstyConfig{
		Total: 1500, BurstLength: 150, WorkingSet: 10, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	hitRate := func(policy core.Policy) float64 {
		// Capacity 6 < working set 10: the cache cannot hold a whole
		// burst, so the eviction policy decides whether the Zipf-hot
		// head of the working set stays resident (LRU) or rotates out
		// by insertion age (FIFO).
		cache, err := core.NewFlat(bench.Dim(), core.Options{
			Capacity:  6,
			Tolerance: 5,
			Policy:    policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			if _, ok := cache.Get(q.Embedding); !ok {
				cache.Put(q.Embedding, []int{q.Question})
			}
		}
		return cache.Stats().HitRate()
	}
	lru, fifo := hitRate(core.LRU), hitRate(core.FIFO)
	t.Logf("bursty workload: LRU hit rate %.3f vs FIFO %.3f", lru, fifo)
	if lru <= fifo {
		t.Errorf("LRU (%.3f) should beat FIFO (%.3f) under bursty traffic (§3.3.2)", lru, fifo)
	}
}
