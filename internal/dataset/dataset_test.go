package dataset

import (
	"math"
	"testing"

	"proximity/internal/llm"
	"proximity/internal/vec"
	"proximity/internal/zipf"
)

// smallMMLU/smallMedRAG use reduced dimensions and corpus sizes to keep
// unit tests fast; geometry scales with token counts, not dim, as long as
// dim is large enough for near-orthogonality.
func smallMMLU(t *testing.T) *Benchmark {
	t.Helper()
	b, err := NewMMLU(MMLUConfig{Questions: 40, Topics: 10, DocsPerTopic: 8, Dim: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func smallMedRAG(t *testing.T) *Benchmark {
	t.Helper()
	b, err := NewMedRAG(MedRAGConfig{Questions: 40, Topics: 10, DocsPerTopic: 8, Dim: 256, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMMLUDefaults(t *testing.T) {
	b, err := NewMMLU(MMLUConfig{Questions: 5, Topics: 5, DocsPerTopic: 2, Dim: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "mmlu" || b.DefaultK != 4 {
		t.Error("benchmark identity wrong")
	}
	if len(b.Questions) != 5 {
		t.Errorf("questions = %d", len(b.Questions))
	}
	// Corpus: 5 topics × 2 docs + 5 questions × 3 gold.
	if b.Corpus.Len() != 10+15 {
		t.Errorf("corpus len = %d, want 25", b.Corpus.Len())
	}
}

func TestBenchmarkValidation(t *testing.T) {
	if _, err := NewMMLU(MMLUConfig{Questions: -1, Dim: 16}); err == nil {
		t.Error("negative questions should error")
	}
	if _, err := NewMedRAG(MedRAGConfig{Questions: 2, Topics: -2, Dim: 16}); err == nil {
		t.Error("negative topics should error")
	}
}

func TestQuestionsHaveGoldPassages(t *testing.T) {
	b := smallMMLU(t)
	for _, q := range b.Questions {
		if len(q.Gold) != 3 {
			t.Fatalf("question %d has %d gold passages", q.ID, len(q.Gold))
		}
		for _, g := range q.Gold {
			if b.DocTopic(g) != q.Topic {
				t.Fatalf("gold passage %d topic mismatch for question %d", g, q.ID)
			}
		}
	}
}

func TestDocTopicBounds(t *testing.T) {
	b := smallMMLU(t)
	if b.DocTopic(-1) != -1 || b.DocTopic(b.Corpus.Len()) != -1 {
		t.Error("out-of-range DocTopic should be -1")
	}
	if b.DocTopic(0) < 0 {
		t.Error("valid doc should have a topic")
	}
}

func TestLLMQuestionAdapter(t *testing.T) {
	b := smallMMLU(t)
	q := b.Questions[0]
	lq := b.LLMQuestion(q)
	if lq.ID != q.ID || lq.Topic != q.Topic || len(lq.Gold) != len(q.Gold) {
		t.Error("LLMQuestion adapter lost fields")
	}
}

// Gold passages must be the nearest passages to their question — the
// retrieval-correctness premise of the accuracy simulation.
func TestGoldPassagesAreNearest(t *testing.T) {
	for _, b := range []*Benchmark{smallMMLU(t), smallMedRAG(t)} {
		enc := b.Embedder()
		misranked := 0
		for _, q := range b.Questions {
			qv := enc.Embed(q.Text)
			var top vec.TopKBuffer
			top.Reset(len(q.Gold))
			top.PushDistances(qv, b.Corpus.Embeddings, vec.L2)
			res := top.Result()
			gold := make(map[int]struct{}, len(q.Gold))
			for _, g := range q.Gold {
				gold[g] = struct{}{}
			}
			for _, r := range res {
				if _, ok := gold[r.ID]; !ok {
					misranked++
					break
				}
			}
		}
		if misranked > len(b.Questions)/10 {
			t.Errorf("%s: %d/%d questions do not retrieve their gold passages first",
				b.Name, misranked, len(b.Questions))
		}
	}
}

// The embedding geometry calibration: variants must sit in the paper's
// matching bands relative to the tolerance grids used in Fig. 6/7.
func TestVariantGeometryMMLU(t *testing.T) {
	b := smallMMLU(t)
	enc := b.Embedder()
	var within1, within2, pairs int
	for _, q := range b.Questions {
		vs := make([]vec.Vector, 4)
		for v := 0; v < 4; v++ {
			vs[v] = enc.Embed(b.VariantText(q, v))
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				d := float64(vec.L2(vs[i], vs[j]))
				pairs++
				if d <= 1 {
					within1++
				}
				if d <= 2 {
					within2++
				}
				if d > 3.5 {
					t.Errorf("mmlu q%d variants %d,%d distance %v too large", q.ID, i, j, d)
				}
			}
		}
	}
	frac1 := float64(within1) / float64(pairs)
	frac2 := float64(within2) / float64(pairs)
	// MMLU variants are mostly prefix chatter: roughly half the pairs
	// within τ=1, most within τ=2 (matches the paper's hit-rate jump
	// from τ=1 to τ=2 in Fig. 6b).
	if frac1 < 0.25 || frac1 > 0.85 {
		t.Errorf("mmlu fraction of variant pairs within τ=1: %.2f, want mid-range", frac1)
	}
	if frac2 < 0.75 {
		t.Errorf("mmlu fraction of variant pairs within τ=2: %.2f, want most", frac2)
	}
}

func TestVariantGeometryMedRAG(t *testing.T) {
	b := smallMedRAG(t)
	enc := b.Embedder()
	var within2, within5, pairs int
	for _, q := range b.Questions {
		vs := make([]vec.Vector, 4)
		for v := 0; v < 4; v++ {
			vs[v] = enc.Embed(b.VariantText(q, v))
		}
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				d := float64(vec.L2(vs[i], vs[j]))
				pairs++
				if d <= 2 {
					within2++
				}
				if d <= 5 {
					within5++
				}
			}
		}
	}
	frac2 := float64(within2) / float64(pairs)
	frac5 := float64(within5) / float64(pairs)
	// MedRAG variants reword content: few pairs within τ=2, nearly all
	// within τ=5 (the paper's hit rate jumps from ~16% to ~73%).
	if frac2 > 0.5 {
		t.Errorf("medrag fraction within τ=2: %.2f, want minority", frac2)
	}
	if frac5 < 0.9 {
		t.Errorf("medrag fraction within τ=5: %.2f, want ≈ all", frac5)
	}
}

// Distinct questions must sit in the false-positive band: inside τ=10
// (where the paper's accuracy collapses) but outside the variant band.
func TestInterQuestionGeometry(t *testing.T) {
	tests := []struct {
		bench    *Benchmark
		minDist  float64 // variants must not be confusable
		maxDist  float64 // must be inside the τ=10 blast radius
		tauSafe  float64 // tolerance that should NOT match distinct questions
		safeFrac float64 // max fraction of cross-question pairs within tauSafe
	}{
		{bench: smallMMLU(t), minDist: 2.0, maxDist: 10, tauSafe: 2, safeFrac: 0.02},
		// MedRAG questions must sit outside τ=7.5 (Fig. 7b's ≈100%
		// recall regime) but inside τ=10 (the collapse regime).
		{bench: smallMedRAG(t), minDist: 6.0, maxDist: 10, tauSafe: 7.5, safeFrac: 0.02},
	}
	for _, tt := range tests {
		enc := tt.bench.Embedder()
		embeds := make([]vec.Vector, len(tt.bench.Questions))
		for i, q := range tt.bench.Questions {
			embeds[i] = enc.Embed(q.Text)
		}
		var withinSafe, pairs int
		var meanDist float64
		for i := range embeds {
			for j := i + 1; j < len(embeds); j++ {
				d := float64(vec.L2(embeds[i], embeds[j]))
				pairs++
				meanDist += d
				if d <= tt.tauSafe {
					withinSafe++
				}
				if d > tt.maxDist {
					t.Errorf("%s: questions %d,%d distance %v beyond τ=10", tt.bench.Name, i, j, d)
				}
				if d < tt.minDist {
					t.Errorf("%s: questions %d,%d distance %v inside the variant band", tt.bench.Name, i, j, d)
				}
			}
		}
		if frac := float64(withinSafe) / float64(pairs); frac > tt.safeFrac {
			t.Errorf("%s: %.3f of cross-question pairs within τ=%v, want ≤ %.2f",
				tt.bench.Name, frac, tt.tauSafe, tt.safeFrac)
		}
		meanDist /= float64(pairs)
		t.Logf("%s mean inter-question distance: %.2f", tt.bench.Name, meanDist)
	}
}

func TestVariantDeterminism(t *testing.T) {
	b := smallMMLU(t)
	q := b.Questions[3]
	for v := 0; v < 4; v++ {
		if b.VariantText(q, v) != b.VariantText(q, v) {
			t.Fatal("variants must be deterministic")
		}
	}
	if b.VariantText(q, 0) != q.Text {
		t.Error("variant 0 must be the canonical text")
	}
	if b.VariantText(q, 1) == b.VariantText(q, 2) {
		t.Error("distinct variants must differ")
	}
}

func TestParaphraseTextUniqueAcrossOccurrences(t *testing.T) {
	b := smallMedRAG(t)
	q := b.Questions[0]
	seen := make(map[string]struct{})
	for occ := 0; occ < 500; occ++ {
		p := b.ParaphraseText(q, occ)
		if _, dup := seen[p]; dup {
			t.Fatalf("duplicate paraphrase at occurrence %d", occ)
		}
		seen[p] = struct{}{}
	}
}

func TestSubset(t *testing.T) {
	b := smallMedRAG(t)
	sub := b.Subset(10, 99)
	if len(sub.Questions) != 10 {
		t.Fatalf("subset size = %d", len(sub.Questions))
	}
	if sub.Corpus != b.Corpus {
		t.Error("subset should share the corpus")
	}
	ids := make(map[int]struct{})
	for _, q := range sub.Questions {
		ids[q.ID] = struct{}{}
	}
	if len(ids) != 10 {
		t.Error("subset questions must be distinct")
	}
	if got := b.Subset(1000, 99); got != b {
		t.Error("oversized subset should return the benchmark itself")
	}
}

func TestProfilesAttached(t *testing.T) {
	if smallMMLU(t).Profile != llm.MMLUProfile() {
		t.Error("MMLU profile not attached")
	}
	if smallMedRAG(t).Profile != llm.MedRAGProfile() {
		t.Error("MedRAG profile not attached")
	}
}

func TestNewTripClick(t *testing.T) {
	log, err := NewTripClick(TripClickConfig{
		UniqueQueries: 200, TotalQueries: 3000, Topics: 10, DocsPerTopic: 5, Dim: 128, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Stream) != 3000 {
		t.Fatalf("stream len = %d", len(log.Stream))
	}
	if len(log.Bench.Questions) != 200 {
		t.Fatalf("unique queries = %d", len(log.Bench.Questions))
	}
	// Every unique query must appear at least once.
	counts := make([]int, 200)
	for _, q := range log.Stream {
		if q < 0 || q >= 200 {
			t.Fatalf("stream references unknown question %d", q)
		}
		counts[q]++
	}
	for q, c := range counts {
		if c == 0 {
			t.Errorf("question %d never appears", q)
		}
	}
}

func TestTripClickValidation(t *testing.T) {
	if _, err := NewTripClick(TripClickConfig{UniqueQueries: 100, TotalQueries: 50, Dim: 32}); err == nil {
		t.Error("total < unique should error")
	}
}

func TestTripClickZipfShape(t *testing.T) {
	log, err := NewTripClick(TripClickConfig{
		UniqueQueries: 300, TotalQueries: 30000, Topics: 10, DocsPerTopic: 5, Dim: 64, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	freqs := log.Frequencies()
	if freqs[0] < freqs[len(freqs)-1] {
		t.Error("frequencies must be descending")
	}
	fit, err := zipf.Fit(freqs)
	if err != nil {
		t.Fatal(err)
	}
	// Recover a skew in the right regime (Fig. 2's s ≈ 0.627). The
	// estimator on sampled data carries bias, so allow a wide band.
	if fit.Exponent < 0.35 || fit.Exponent > 1.0 {
		t.Errorf("fitted exponent = %.3f, want near 0.627", fit.Exponent)
	}
	// Strong skew: the most popular query should dominate the median.
	if freqs[0] < 10*freqs[len(freqs)/2] {
		t.Errorf("head frequency %d not dominant over median %d", freqs[0], freqs[len(freqs)/2])
	}
}

func TestTripClickShortQueryGeometry(t *testing.T) {
	log, err := NewTripClick(TripClickConfig{
		UniqueQueries: 60, TotalQueries: 600, Topics: 10, DocsPerTopic: 5, Dim: 256, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := log.Bench.Embedder()
	embeds := make([]vec.Vector, len(log.Bench.Questions))
	for i, q := range log.Bench.Questions {
		embeds[i] = enc.Embed(q.Text)
	}
	var within25, pairs int
	minDist := math.Inf(1)
	for i := range embeds {
		for j := i + 1; j < len(embeds); j++ {
			d := float64(vec.L2(embeds[i], embeds[j]))
			pairs++
			if d <= 2.5 {
				within25++
			}
			if d < minDist {
				minDist = d
			}
		}
	}
	// Short queries: some pairs inside τ=2.5 (recall dips in Fig. 12)
	// but none inside τ=1 (recall ≈ 99.4% at τ=1).
	if minDist <= 1 {
		t.Errorf("min inter-query distance %.2f; distinct queries inside τ=1 break Fig. 12's near-perfect recall", minDist)
	}
	if within25 == 0 {
		t.Error("no query pairs within τ=2.5; Fig. 12's recall degradation would not reproduce")
	}
	t.Logf("tripclick: %d/%d pairs within τ=2.5, min distance %.2f", within25, pairs, minDist)
}

func TestTripClickDeterminism(t *testing.T) {
	mk := func() *TripClickLog {
		log, err := NewTripClick(TripClickConfig{
			UniqueQueries: 100, TotalQueries: 1000, Topics: 5, DocsPerTopic: 4, Dim: 32, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := mk(), mk()
	for i := range a.Stream {
		if a.Stream[i] != b.Stream[i] {
			t.Fatal("same seed must produce the same stream")
		}
	}
}
