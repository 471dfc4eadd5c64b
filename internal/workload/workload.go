// Package workload materializes the query streams of §4.2.2: the
// *uniform* datasets (every question repeated four times in slight
// variations, shuffled), the *Zipf* dataset (10k draws from a Zipf(0.8)
// over the question set, every occurrence uniquely rephrased), and the
// TripClick log replay (exact repeats in log order). A workload carries
// pre-computed embeddings so experiments measure cache and database time,
// not encoding time — matching the paper, where the encoder runs before
// the retriever in both cached and uncached pipelines.
package workload

import (
	"fmt"

	"proximity/internal/dataset"
	"proximity/internal/vec"
	"proximity/internal/zipf"
)

// Query is one workload element.
type Query struct {
	// Embedding is the pre-computed embedding of the query's surface
	// form.
	Embedding vec.Vector
	// Question is the position of the underlying question in the
	// benchmark's Questions slice (not the Question.ID, which subsets
	// preserve from the full set).
	Question int
}

// Workload is an ordered query stream.
type Workload struct {
	Name    string
	Queries []Query
}

// Len returns the number of queries.
func (w Workload) Len() int { return len(w.Queries) }

// UniqueQuestions returns how many distinct benchmark questions appear.
func (w Workload) UniqueQuestions() int {
	seen := make(map[int]struct{})
	for _, q := range w.Queries {
		seen[q.Question] = struct{}{}
	}
	return len(seen)
}

// MaxHitRate returns the best hit rate any cache could reach on this
// workload: repeats of a question can hit, first occurrences cannot
// (unless tolerance admits cross-question matches).
func (w Workload) MaxHitRate() float64 {
	if len(w.Queries) == 0 {
		return 0
	}
	return 1 - float64(w.UniqueQuestions())/float64(len(w.Queries))
}

// UniformVariants builds the uniform workload: `variants` variations of
// every benchmark question, shuffled (§4.2.2: four variants each, 524
// queries for MMLU, 800 for MedRAG).
func UniformVariants(b *dataset.Benchmark, variants int, seed uint64) (Workload, error) {
	if variants <= 0 {
		return Workload{}, fmt.Errorf("workload: variants must be positive, got %d", variants)
	}
	enc := b.Embedder()
	queries := make([]Query, 0, len(b.Questions)*variants)
	for qi, q := range b.Questions {
		for v := 0; v < variants; v++ {
			queries = append(queries, Query{
				Embedding: enc.Embed(b.VariantText(q, v)),
				Question:  qi,
			})
		}
	}
	shuffle(queries, seed)
	return Workload{Name: b.Name + "-uniform", Queries: queries}, nil
}

// ZipfVariants builds the skewed workload: `total` draws from a bounded
// Zipf over the question set, each occurrence uniquely rephrased, with
// every question appearing at least once (§4.2.2's MedRAG-Zipf:
// 10k draws, exponent 0.8, most frequent question ≈700 times). Queries
// are statistically independent — the paper's stated worst case for
// temporal locality.
func ZipfVariants(b *dataset.Benchmark, total int, exponent float64, seed uint64) (Workload, error) {
	if total < len(b.Questions) {
		return Workload{}, fmt.Errorf("workload: total %d below question count %d", total, len(b.Questions))
	}
	rng := vec.NewRand(seed)
	sampler, err := zipf.NewSampler(rng, len(b.Questions), exponent)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: %w", err)
	}
	rankToQuestion := rng.Perm(len(b.Questions))

	// Draw the question sequence, then patch coverage before paying
	// for paraphrase generation and embedding.
	draws := make([]int, total)
	counts := make([]int, len(b.Questions))
	for i := range draws {
		draws[i] = rankToQuestion[sampler.Next()]
		counts[draws[i]]++
	}
	pos := total - 1
	for qid, c := range counts {
		if c > 0 {
			continue
		}
		for pos >= 0 && counts[draws[pos]] < 2 {
			pos--
		}
		if pos < 0 {
			return Workload{}, fmt.Errorf("workload: cannot guarantee coverage of %d questions in %d draws",
				len(b.Questions), total)
		}
		counts[draws[pos]]--
		draws[pos] = qid
		counts[qid]++
	}

	enc := b.Embedder()
	queries := make([]Query, total)
	for i, qid := range draws {
		queries[i] = Query{
			Embedding: enc.Embed(b.ParaphraseText(b.Questions[qid], i)),
			Question:  qid,
		}
	}
	shuffle(queries, seed+1)
	return Workload{Name: b.Name + "-zipf", Queries: queries}, nil
}

// FromTripClick replays the synthetic TripClick log: exact repeats in log
// order, embeddings shared across occurrences of the same query.
func FromTripClick(log *dataset.TripClickLog) Workload {
	enc := log.Bench.Embedder()
	embeds := make([]vec.Vector, len(log.Bench.Questions))
	for i, q := range log.Bench.Questions {
		embeds[i] = enc.Embed(q.Text)
	}
	queries := make([]Query, len(log.Stream))
	for i, qid := range log.Stream {
		queries[i] = Query{Embedding: embeds[qid], Question: qid}
	}
	return Workload{Name: "tripclick-log", Queries: queries}
}

// shuffle is a seeded Fisher-Yates permutation.
func shuffle(qs []Query, seed uint64) {
	rng := vec.NewRand(seed)
	for i := len(qs) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		qs[i], qs[j] = qs[j], qs[i]
	}
}
