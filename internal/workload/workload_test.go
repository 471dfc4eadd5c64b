package workload

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"proximity/internal/dataset"
)

func testBench(t *testing.T) *dataset.Benchmark {
	t.Helper()
	b, err := dataset.NewMedRAG(dataset.MedRAGConfig{
		Questions: 30, Topics: 6, DocsPerTopic: 5, Dim: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestUniformVariants(t *testing.T) {
	b := testBench(t)
	w, err := UniformVariants(b, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 120 {
		t.Fatalf("Len = %d, want 120", w.Len())
	}
	if w.UniqueQuestions() != 30 {
		t.Errorf("UniqueQuestions = %d", w.UniqueQuestions())
	}
	if got := w.MaxHitRate(); got != 0.75 {
		t.Errorf("MaxHitRate = %v, want 0.75 (4 variants)", got)
	}
	// Each question appears exactly 4 times, once as each of its
	// variants' encoder output.
	enc := b.Embedder()
	type key struct{ q, v int }
	seen := make(map[key]bool)
	for _, q := range w.Queries {
		v := slices.IndexFunc([]int{0, 1, 2, 3}, func(v int) bool {
			return slices.Equal(q.Embedding, enc.Embed(b.VariantText(b.Questions[q.Question], v)))
		})
		if v < 0 {
			t.Fatalf("question %d: embedding matches none of its variants", q.Question)
		}
		if k := (key{q.Question, v}); seen[k] {
			t.Fatalf("duplicate (question, variant) pair %v", k)
		} else {
			seen[k] = true
		}
	}
}

// embeddingKey is an embedding's bits as a map key.
func embeddingKey(v []float32) string {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return string(b)
}

func TestUniformVariantsValidation(t *testing.T) {
	b := testBench(t)
	if _, err := UniformVariants(b, 0, 1); err == nil {
		t.Error("0 variants should error")
	}
}

func TestUniformVariantsShuffled(t *testing.T) {
	b := testBench(t)
	w, err := UniformVariants(b, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The stream must not be grouped by question: count adjacent pairs
	// with the same question; grouped order would give ~75%.
	same := 0
	for i := 1; i < w.Len(); i++ {
		if w.Queries[i].Question == w.Queries[i-1].Question {
			same++
		}
	}
	if frac := float64(same) / float64(w.Len()-1); frac > 0.3 {
		t.Errorf("stream looks unshuffled: %.2f adjacent same-question pairs", frac)
	}
}

func TestUniformVariantsDeterminism(t *testing.T) {
	b := testBench(t)
	w1, err := UniformVariants(b, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := UniformVariants(b, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1.Queries {
		if !slices.Equal(w1.Queries[i].Embedding, w2.Queries[i].Embedding) {
			t.Fatal("same seed must produce the same stream")
		}
	}
}

func TestZipfVariants(t *testing.T) {
	b := testBench(t)
	w, err := ZipfVariants(b, 600, 0.8, 11)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 600 {
		t.Fatalf("Len = %d", w.Len())
	}
	if w.UniqueQuestions() != 30 {
		t.Errorf("every question must appear at least once, got %d/30", w.UniqueQuestions())
	}
	// All surface forms unique (paper: verified unique across dataset),
	// so no two embeddings are equal.
	seen := make(map[string]bool, w.Len())
	for i, q := range w.Queries {
		k := embeddingKey(q.Embedding)
		if seen[k] {
			t.Fatalf("query %d repeats an earlier paraphrase's embedding", i)
		}
		seen[k] = true
	}
	// Skew: the most frequent question must dominate.
	counts := make(map[int]int)
	for _, q := range w.Queries {
		counts[q.Question]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount < 40 { // 600 draws over 30 questions, Zipf(0.8): head ≫ mean of 20
		t.Errorf("head question count = %d, expected strong skew", maxCount)
	}
}

func TestZipfVariantsValidation(t *testing.T) {
	b := testBench(t)
	if _, err := ZipfVariants(b, 10, 0.8, 1); err == nil {
		t.Error("total below question count should error")
	}
	if _, err := ZipfVariants(b, 100, -1, 1); err == nil {
		t.Error("invalid exponent should error")
	}
}

func TestFromTripClick(t *testing.T) {
	log, err := dataset.NewTripClick(dataset.TripClickConfig{
		UniqueQueries: 50, TotalQueries: 400, Topics: 5, DocsPerTopic: 4, Dim: 64, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := FromTripClick(log)
	if w.Len() != 400 {
		t.Fatalf("Len = %d", w.Len())
	}
	// Repeats are exact: same question → same embedding values.
	byQuestion := make(map[int]Query)
	for _, q := range w.Queries {
		if prev, ok := byQuestion[q.Question]; ok {
			if !slices.Equal(prev.Embedding, q.Embedding) {
				t.Fatal("tripclick repeats must be exact")
			}
		} else {
			byQuestion[q.Question] = q
		}
	}
	if len(byQuestion) != 50 {
		t.Errorf("unique questions = %d", len(byQuestion))
	}
	// Order preserved from the log.
	for i := range w.Queries {
		if w.Queries[i].Question != log.Stream[i] {
			t.Fatal("workload must preserve log order")
		}
	}
}

func TestMaxHitRateEmpty(t *testing.T) {
	var w Workload
	if w.MaxHitRate() != 0 {
		t.Error("empty workload MaxHitRate should be 0")
	}
}
