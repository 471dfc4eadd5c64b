package experiments

import (
	"fmt"
	"strings"
	"time"

	"proximity/internal/core"
	"proximity/internal/vec"
)

// OpCountResult reproduces the §3.2 back-of-envelope analysis with
// measured counters: for c=10000 cached entries at d=768, a FLAT lookup
// performs c·d ≈ 7.68M multiply-accumulate operations while an LSH lookup
// (L=10, b=20) performs (L+b)·d ≈ 23k — a ≈300× reduction, independent of
// capacity. The counters come from the caches' own instrumentation, not
// an estimate.
type OpCountResult struct {
	Dim        int
	Capacity   int
	Bits       int
	Bucket     int
	Lookups    int
	FlatOps    float64 // per-lookup distance+hash operations × d
	LSHOps     float64
	Reduction  float64
	FlatUS     float64 // measured wall microseconds per lookup
	LSHUS      float64
	SpeedupWal float64
}

// OpCountAblation fills both caches with the same random keys and probes
// them with identical queries, reading per-lookup operation counts from
// the cache statistics.
func (s *Suite) OpCountAblation() (*OpCountResult, error) {
	const (
		capacity = 10000
		lshBits  = 10
		lookups  = 50
	)
	dim := s.cfg.Dim
	flat, err := core.NewFlat(dim, core.Options{Capacity: capacity, Tolerance: 1, Policy: core.LRU})
	if err != nil {
		return nil, err
	}
	lshCache, err := core.NewLSH(dim, core.LSHOptions{
		Bits:           lshBits,
		BucketCapacity: core.DefaultBucketCapacity,
		Tolerance:      1,
		Policy:         core.LRU,
		Seed:           51,
	})
	if err != nil {
		return nil, err
	}
	rng := vec.NewRand(52)
	for i := 0; i < capacity; i++ {
		v := vec.Scale(vec.RandomUnit(rng, dim), 10)
		flat.Put(v, []int{i})
		lshCache.Put(v, []int{i})
	}
	probes := make([]vec.Vector, lookups)
	for i := range probes {
		probes[i] = vec.Scale(vec.RandomUnit(rng, dim), 10)
	}

	// Snapshot counters around the probe loop so the fill phase's hash
	// and insert accounting does not dilute the per-lookup averages.
	flatBefore, lshBefore := flat.Stats(), lshCache.Stats()
	flatUS, err := timeLookups(flat, probes)
	if err != nil {
		return nil, err
	}
	lshUS, err := timeLookups(lshCache, probes)
	if err != nil {
		return nil, err
	}
	fs, ls := flat.Stats(), lshCache.Stats()

	flatLookups := float64(fs.Lookups() - flatBefore.Lookups())
	lshLookups := float64(ls.Lookups() - lshBefore.Lookups())
	flatOps := float64(fs.DistComps-flatBefore.DistComps) / flatLookups * float64(dim)
	lshOps := float64((ls.DistComps-lshBefore.DistComps)+(ls.HashOps-lshBefore.HashOps)) /
		lshLookups * float64(dim)
	res := &OpCountResult{
		Dim:      dim,
		Capacity: capacity,
		Bits:     lshBits,
		Bucket:   core.DefaultBucketCapacity,
		Lookups:  lookups,
		FlatOps:  flatOps,
		LSHOps:   lshOps,
		FlatUS:   flatUS,
		LSHUS:    lshUS,
	}
	if lshOps > 0 {
		res.Reduction = flatOps / lshOps
	}
	if lshUS > 0 {
		res.SpeedupWal = flatUS / lshUS
	}
	return res, nil
}

// timeLookups measures the mean Get wall time in microseconds.
func timeLookups(cache core.Cache, probes []vec.Vector) (float64, error) {
	if len(probes) == 0 {
		return 0, fmt.Errorf("experiments: no probes")
	}
	start := nowNanos()
	for _, p := range probes {
		cache.Get(p)
	}
	return float64(nowNanos()-start) / float64(len(probes)) / 1e3, nil
}

// Render prints the comparison.
func (r *OpCountResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Op-count ablation (§3.2): c=%d, d=%d, L=%d, b=%d, %d lookups\n",
		r.Capacity, r.Dim, r.Bits, r.Bucket, r.Lookups)
	fmt.Fprintf(&b, "  FLAT: %.0f ops/lookup, measured %.1f µs\n", r.FlatOps, r.FlatUS)
	fmt.Fprintf(&b, "  LSH:  %.0f ops/lookup, measured %.1f µs\n", r.LSHOps, r.LSHUS)
	fmt.Fprintf(&b, "  reduction: %.0fx ops (paper predicts ≈300x); wall-clock speedup %.0fx\n",
		r.Reduction, r.SpeedupWal)
	return b.String()
}

// nowNanos returns a monotonic nanosecond timestamp for micro-timing.
func nowNanos() int64 { return time.Now().UnixNano() }
