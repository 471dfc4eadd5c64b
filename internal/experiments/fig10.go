package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"proximity/internal/core"
	"proximity/internal/report"
	"proximity/internal/vec"
)

// Fig10Result reproduces Fig. 10: the per-query cache lookup time as the
// number of cached entries n grows, for Proximity-FLAT (linear scan, time
// grows linearly) and Proximity-LSH (bucketed scan, time stays constant).
// The paper measures 2µs at n=20 up to 13ms at n=200k for FLAT and a flat
// 4.8µs for LSH. Absolute numbers depend on hardware; the shape — linear
// versus flat — is the claim. The per-lookup operation counts, read from
// the caches' own Stats, show the same shape on any hardware and under
// any instrumentation.
type Fig10Result struct {
	Dim     int
	Sizes   []int
	FlatUS  []float64 // mean lookup microseconds per size
	LSHUS   []float64
	FlatOps []float64 // distance computations per lookup
	LSHOps  []float64 // distance computations plus hyperplane hashes per lookup
	LSHBits []int     // signature width chosen per size so capacity ≥ n
}

// Fig10LookupScaling runs the microbenchmark. Caches are filled with
// random embeddings and probed with a mix of near and far queries under
// the LRU policy, as in §4.5.1.
func (s *Suite) Fig10LookupScaling() (*Fig10Result, error) {
	res := &Fig10Result{
		Dim:     s.cfg.Dim,
		Sizes:   s.cfg.Fig10Sizes,
		FlatUS:  make([]float64, len(s.cfg.Fig10Sizes)),
		LSHUS:   make([]float64, len(s.cfg.Fig10Sizes)),
		FlatOps: make([]float64, len(s.cfg.Fig10Sizes)),
		LSHOps:  make([]float64, len(s.cfg.Fig10Sizes)),
		LSHBits: make([]int, len(s.cfg.Fig10Sizes)),
	}
	for i, n := range s.cfg.Fig10Sizes {
		var err error
		res.FlatUS[i], res.FlatOps[i], err = s.measureFlatLookup(n)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig10 flat n=%d: %w", n, err)
		}

		lshBits := bitsForCapacity(n, core.DefaultBucketCapacity)
		res.LSHUS[i], res.LSHOps[i], err = s.measureLSHLookup(n, lshBits)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig10 lsh n=%d: %w", n, err)
		}
		res.LSHBits[i] = lshBits
	}
	return res, nil
}

// bitsForCapacity picks the smallest L with 2^L·b ≥ n. The paper runs
// Fig. 10 with L=8; beyond 2^8·20 = 5120 entries a wider signature is
// needed to actually store n entries, which leaves the per-lookup cost
// unchanged (one bucket of ≤ b entries is scanned either way).
func bitsForCapacity(n, bucket int) int {
	l := 8
	for (1<<l)*bucket < n && l < 30 {
		l++
	}
	return l
}

func (s *Suite) measureFlatLookup(n int) (us, ops float64, err error) {
	cache, err := core.NewFlat(s.cfg.Dim, core.Options{
		Capacity:  n,
		Tolerance: 1,
		Policy:    core.LRU,
	})
	if err != nil {
		return 0, 0, err
	}
	return s.fillAndProbe(cache, n)
}

func (s *Suite) measureLSHLookup(n, lshBits int) (us, ops float64, err error) {
	cache, err := core.NewLSH(s.cfg.Dim, core.LSHOptions{
		Bits:           lshBits,
		BucketCapacity: core.DefaultBucketCapacity,
		Tolerance:      1,
		Policy:         core.LRU,
		Seed:           31,
	})
	if err != nil {
		return 0, 0, err
	}
	return s.fillAndProbe(cache, n)
}

// fillAndProbe inserts n random keys and measures the mean Get latency
// over the configured number of lookups (half near cached keys, half
// far), repeated 3× taking the best mean to damp scheduler noise. ops is
// the mean distance computations plus hyperplane hashes per lookup, from
// the cache's Stats (a FLAT cache hashes nothing).
func (s *Suite) fillAndProbe(cache core.Cache, n int) (us, ops float64, err error) {
	rng := vec.NewRand(33)
	keys := make([]vec.Vector, 0, minInt(n, 64))
	for i := 0; i < n; i++ {
		v := vec.Scale(vec.RandomUnit(rng, s.cfg.Dim), 10)
		cache.Put(v, []int{i})
		if len(keys) < cap(keys) {
			keys = append(keys, v)
		}
	}
	if cache.Len() == 0 {
		return 0, 0, fmt.Errorf("cache did not retain entries")
	}
	probes := make([]vec.Vector, s.cfg.Fig10Lookups)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = vec.GaussianAround(rng, keys[i%len(keys)], 0.01)
		} else {
			probes[i] = vec.Scale(vec.RandomUnit(rng, s.cfg.Dim), 10)
		}
	}
	const reps = 3
	before := cache.Stats()
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for _, p := range probes {
			cache.Get(p)
		}
		mean := float64(time.Since(start).Nanoseconds()) / float64(len(probes)) / 1e3
		if rep == 0 || mean < us {
			us = mean
		}
	}
	after := cache.Stats()
	ops = float64(after.DistComps+after.HashOps-before.DistComps-before.HashOps) / float64(reps*len(probes))
	return us, ops, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Render prints the scaling table, including the FLAT/LSH ratio.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: cache lookup time vs entries (d=%d, LRU)\n\n", r.Dim)
	tbl := report.NewTable("", "n", "FLAT [µs]", "LSH [µs]", "LSH bits", "FLAT/LSH", "FLAT ops", "LSH ops")
	for i, n := range r.Sizes {
		ratio := "-"
		if r.LSHUS[i] > 0 {
			ratio = fmt.Sprintf("%.1fx", r.FlatUS[i]/r.LSHUS[i])
		}
		tbl.AddRow(
			strconv.Itoa(n),
			fmt.Sprintf("%.2f", r.FlatUS[i]),
			fmt.Sprintf("%.2f", r.LSHUS[i]),
			strconv.Itoa(r.LSHBits[i]),
			ratio,
			fmt.Sprintf("%.0f", r.FlatOps[i]),
			fmt.Sprintf("%.1f", r.LSHOps[i]),
		)
	}
	b.WriteString(tbl.String())
	return b.String()
}
