package vectordb

import (
	"fmt"
	"sync"
	"time"

	"proximity/internal/vec"
)

// LatencyModel yields the simulated service time of one database lookup.
//
// The reproduction's corpora are thousands of passages instead of the
// paper's tens of millions, so wall-clock search time here would
// understate the benefit of caching by orders of magnitude. The latency
// model restores the paper's production-scale service times (no-cache
// rows of Fig. 6c: ≈101 ms for FAISS-HNSW over 21M wiki_dpr vectors,
// ≈4.8 s for FAISS-Flat over 23.9M PubMed vectors) while the index code
// still performs real nearest-neighbor work on the scaled corpus.
// Cache-lookup figures (Fig. 10/11) use real measured time and no model.
type LatencyModel interface {
	// Lookup returns the simulated duration of one database search.
	Lookup() time.Duration
}

// JitteredLatency draws deterministic, seeded service times in
// [Mean·(1-Spread), Mean·(1+Spread)], reproducing the run-to-run variance
// visible in the paper's latency rows without real nondeterminism.
type JitteredLatency struct {
	mean   time.Duration
	spread float64

	mu  sync.Mutex
	rng interface{ Float64() float64 }
}

// NewJitteredLatency creates a seeded jittered latency model; spread must
// be in [0, 1).
func NewJitteredLatency(mean time.Duration, spread float64, seed uint64) (*JitteredLatency, error) {
	if mean <= 0 {
		return nil, fmt.Errorf("vectordb: latency mean must be positive, got %v", mean)
	}
	if spread < 0 || spread >= 1 {
		return nil, fmt.Errorf("vectordb: spread must be in [0,1), got %v", spread)
	}
	return &JitteredLatency{mean: mean, spread: spread, rng: vec.NewRand(seed)}, nil
}

// Lookup implements LatencyModel.
func (j *JitteredLatency) Lookup() time.Duration {
	j.mu.Lock()
	u := j.rng.Float64()
	j.mu.Unlock()
	factor := 1 + j.spread*(2*u-1)
	return time.Duration(float64(j.mean) * factor)
}

// Paper-calibrated presets. The means come from the no-cache rows of the
// paper's Fig. 6c; spreads approximate the reported across-cell variance.
const (
	// WikiDPRHNSWMean is the paper's MMLU retrieval latency without
	// caching (FAISS-HNSW over 21M wiki_dpr passages).
	WikiDPRHNSWMean = 95 * time.Millisecond
	// PubMedFlatMean is the paper's MedRAG retrieval latency without
	// caching (FAISS-Flat over 23.9M PubMed passages).
	PubMedFlatMean = 4800 * time.Millisecond
)

// WikiDPRHNSWLatency returns the MMLU-calibrated model.
func WikiDPRHNSWLatency(seed uint64) LatencyModel {
	m, err := NewJitteredLatency(WikiDPRHNSWMean, 0.10, seed)
	if err != nil {
		panic(err) // constants are valid by construction
	}
	return m
}

// PubMedFlatLatency returns the MedRAG-calibrated model.
func PubMedFlatLatency(seed uint64) LatencyModel {
	m, err := NewJitteredLatency(PubMedFlatMean, 0.10, seed)
	if err != nil {
		panic(err)
	}
	return m
}
