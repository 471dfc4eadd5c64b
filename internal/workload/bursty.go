package workload

import (
	"fmt"

	"proximity/internal/dataset"
	"proximity/internal/vec"
	"proximity/internal/zipf"
)

// BurstyConfig parameterizes a workload with temporal locality. The
// paper's MedRAG-Zipf stream is deliberately i.i.d. — "a worst-case
// scenario for caching" (§4.2.2) — and its §3.3.2 remarks that LRU should
// beat FIFO precisely when traffic is bursty. This workload provides the
// missing regime so that claim can be validated: queries arrive in bursts
// during which a small working set of questions dominates, and the
// working set drifts over time.
type BurstyConfig struct {
	// Total is the number of queries to generate.
	//proximity:allow deadfield item 3 sweeps the cache policies over this stream
	Total int
	// BurstLength is how many queries share one working set.
	//proximity:allow deadfield item 3 sweeps the cache policies over this stream
	BurstLength int
	// WorkingSet is how many questions are hot within a burst.
	//proximity:allow deadfield item 3 sweeps the cache policies over this stream
	WorkingSet int
	// Exponent is the Zipf skew applied within the working set.
	//proximity:allow deadfield item 3 sweeps the cache policies over this stream
	Exponent float64
	// Seed drives everything.
	//proximity:allow deadfield item 3 sweeps the cache policies over this stream
	Seed uint64
}

func (c *BurstyConfig) fillDefaults() {
	if c.BurstLength == 0 {
		c.BurstLength = 100
	}
	if c.WorkingSet == 0 {
		c.WorkingSet = 10
	}
	if c.Exponent == 0 {
		c.Exponent = 0.8
	}
}

// Bursty builds the temporally-local workload: each burst picks a fresh
// working set of questions (sliding over the question list) and draws
// queries Zipf-skewed from it, each occurrence uniquely rephrased.
//
//proximity:allow unusedapi item 3 sweeps the quality frontier on bursty streams
func Bursty(b *dataset.Benchmark, cfg BurstyConfig) (Workload, error) {
	cfg.fillDefaults()
	if cfg.Total <= 0 {
		return Workload{}, fmt.Errorf("workload: bursty total must be positive, got %d", cfg.Total)
	}
	if cfg.WorkingSet > len(b.Questions) {
		return Workload{}, fmt.Errorf("workload: working set %d exceeds question count %d",
			cfg.WorkingSet, len(b.Questions))
	}
	rng := vec.NewRand(cfg.Seed)
	sampler, err := zipf.NewSampler(rng, cfg.WorkingSet, cfg.Exponent)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: bursty sampler: %w", err)
	}
	enc := b.Embedder()

	queries := make([]Query, 0, cfg.Total)
	var working []int
	for i := 0; i < cfg.Total; i++ {
		if i%cfg.BurstLength == 0 {
			// New burst: sample a fresh working set.
			perm := rng.Perm(len(b.Questions))
			working = perm[:cfg.WorkingSet]
		}
		qi := working[sampler.Next()]
		queries = append(queries, Query{
			Embedding: enc.Embed(b.ParaphraseText(b.Questions[qi], i)),
			Question:  qi,
		})
	}
	return Workload{Name: b.Name + "-bursty", Queries: queries}, nil
}
