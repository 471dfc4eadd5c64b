// Package zipf implements the bounded Zipf distribution used to model query
// skew. Section 2.3 of the paper measures an exponent of s ≈ 0.627 on the
// TripClick search log and the MedRAG-Zipf workload draws queries with
// s = 0.8 (§4.2.2); this package provides both the sampler that generates
// such workloads and the estimator that recovers the exponent from an
// observed frequency distribution (Fig. 2).
package zipf

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"proximity/internal/stats"
)

// Sampler draws ranks in [0, n) with P(rank = r) ∝ 1/(r+1)^s. Unlike
// math/rand's Zipf, the exponent may be ≤ 1, which the paper's measured
// skews require. Sampling is by inverse transform over the precomputed CDF
// (O(log n) per draw).
type Sampler struct {
	rng *rand.Rand
	cdf []float64
}

// NewSampler creates a Zipf sampler over n ranks with exponent s > 0.
func NewSampler(rng *rand.Rand, n int, s float64) (*Sampler, error) {
	if n <= 0 {
		return nil, fmt.Errorf("zipf: need n > 0, got %d", n)
	}
	if s <= 0 {
		return nil, fmt.Errorf("zipf: need exponent > 0, got %v", s)
	}
	cdf := make([]float64, n)
	var cum float64
	for r := 0; r < n; r++ {
		cum += math.Pow(float64(r+1), -s)
		cdf[r] = cum
	}
	// Normalize so the last entry is exactly 1.
	for r := range cdf {
		cdf[r] /= cum
	}
	cdf[n-1] = 1
	return &Sampler{rng: rng, cdf: cdf}, nil
}

// Next draws one rank in [0, n).
func (s *Sampler) Next() int {
	u := s.rng.Float64()
	return sort.SearchFloat64s(s.cdf, u)
}

// RankFrequency converts a multiset of item identifiers into the
// rank-frequency view of Fig. 2: frequencies sorted descending, index =
// rank (0-based).
func RankFrequency[T comparable](items []T) []int {
	counts := make(map[T]int, len(items))
	for _, it := range items {
		counts[it]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	return freqs
}

// FitResult is an estimated power law fit frequency ≈ C · rank^(-s).
type FitResult struct {
	Exponent float64 // the fitted s (reported positive)
	R2       float64 // goodness of fit in log-log space
}

// Fit estimates the Zipf exponent from a descending rank-frequency curve by
// least squares on (log rank, log frequency), the method the paper uses for
// the TripClick analysis. Ranks with zero frequency are skipped.
func Fit(freqs []int) (FitResult, error) {
	var xs, ys []float64
	for r, f := range freqs {
		if f <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(r+1)))
		ys = append(ys, math.Log(float64(f)))
	}
	if len(xs) < 2 {
		return FitResult{}, fmt.Errorf("zipf: need at least 2 non-empty ranks, got %d", len(xs))
	}
	slope, intercept, err := stats.LinearFit(xs, ys)
	if err != nil {
		return FitResult{}, fmt.Errorf("zipf fit: %w", err)
	}
	return FitResult{
		Exponent: -slope,
		R2:       stats.RSquared(xs, ys, slope, intercept),
	}, nil
}
