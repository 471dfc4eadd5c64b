package telemetry

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestBucketGeometry checks that bucketOf and bucketUpper are consistent
// inverses: every value lands in a bucket whose bounds contain it, and
// bucket upper bounds are strictly increasing (continuous coverage).
func TestBucketGeometry(t *testing.T) {
	prev := int64(0)
	for i := 0; i < numBuckets; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucketUpper(%d)=%d not increasing (prev %d)", i, up, prev)
		}
		prev = up
	}
	// Exhaustive small values plus a log sweep of large ones.
	check := func(ns int64) {
		idx := bucketOf(ns)
		lo := int64(0)
		if idx > 0 {
			lo = bucketUpper(idx - 1)
		}
		hi := bucketUpper(idx)
		if idx < numBuckets-1 && (ns < lo || ns >= hi) {
			t.Fatalf("bucketOf(%d)=%d but bounds [%d,%d)", ns, idx, lo, hi)
		}
	}
	for ns := int64(0); ns < 4096; ns++ {
		check(ns)
	}
	for ns := int64(1); ns > 0 && ns < int64(1)<<50; ns = ns*3 + 7 {
		check(ns)
	}
	if got := bucketOf(-5); got != 0 {
		t.Fatalf("negative duration bucket = %d, want 0", got)
	}
	if got := bucketOf(math.MaxInt64); got != numBuckets-1 {
		t.Fatalf("overflow bucket = %d, want %d", got, numBuckets-1)
	}
}

// TestHistogramQuantileUniform checks quantile estimates against a known
// uniform distribution: relative error must stay within the bucket
// width bound (2^-subBits = 12.5%).
func TestHistogramQuantileUniform(t *testing.T) {
	h := NewLatencyHistogram()
	const n = 100000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(rng.Int63n(1_000_000))) // uniform [0, 1ms)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := q * 1e6
		got := float64(h.Quantile(q))
		if rel := math.Abs(got-want) / want; rel > 0.13 {
			t.Errorf("q=%.2f: got %.0fns want %.0fns (rel err %.3f)", q, got, want, rel)
		}
	}
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	mean := float64(h.Mean())
	if math.Abs(mean-500_000)/500_000 > 0.02 {
		t.Errorf("mean = %.0f, want ~500000", mean)
	}
}

// TestHistogramQuantileBimodal checks a distribution with a distinct
// tail: 90% fast ops at ~10µs, 10% slow at ~10ms. p50 must sit near the
// fast mode and p99 near the slow mode.
func TestHistogramQuantileBimodal(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 9000; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 1000; i++ {
		h.Observe(10 * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 8*time.Microsecond || p50 > 13*time.Microsecond {
		t.Errorf("p50 = %v, want ~10µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 8*time.Millisecond || p99 > 13*time.Millisecond {
		t.Errorf("p99 = %v, want ~10ms", p99)
	}
}

// TestHistogramQuantileEdges covers the empty histogram and out-of-range
// q values.
func TestHistogramQuantileEdges(t *testing.T) {
	h := NewLatencyHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	if got := h.Mean(); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}
	var empty HistogramSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot should report zeros")
	}
	h.Observe(100 * time.Nanosecond)
	lo, hi := h.Quantile(-1), h.Quantile(2)
	if lo <= 0 || hi <= 0 {
		t.Fatalf("clamped quantiles = %v, %v; want positive", lo, hi)
	}
	h.Observe(-time.Second) // clamps to 0, never panics
	if h.Count() != 2 {
		t.Fatalf("count after negative observe = %d, want 2", h.Count())
	}
}

// TestHistogramMerge verifies that merging equals observing the union.
func TestHistogramMerge(t *testing.T) {
	a, b, union := NewLatencyHistogram(), NewLatencyHistogram(), NewLatencyHistogram()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(1_000_000))
		a.Observe(d)
		union.Observe(d)
	}
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(100_000_000))
		b.Observe(d)
		union.Observe(d)
	}
	a.Merge(b)
	a.Merge(nil) // no-op
	if a.Count() != union.Count() || a.Sum() != union.Sum() {
		t.Fatalf("merged count/sum = %d/%v, want %d/%v", a.Count(), a.Sum(), union.Count(), union.Sum())
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := a.Quantile(q), union.Quantile(q); got != want {
			t.Errorf("q=%.2f merged %v != union %v", q, got, want)
		}
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines while a
// reader snapshots, as a race-detector exercise.
func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(1_000_000)))
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Snapshot().Quantile(0.99)
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

// BenchmarkHistogramObserve measures the hot-path cost of one
// observation (three atomic adds plus a bit scan).
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewLatencyHistogram()
	b.RunParallel(func(pb *testing.PB) {
		d := 137 * time.Microsecond
		for pb.Next() {
			h.Observe(d)
		}
	})
}

// The readers below have no caller outside the tests, which use them to
// check the bucket layout that WritePrometheus exposes.

// Count returns the number of observations.
func (h *LatencyHistogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *LatencyHistogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the mean observation, or 0 with none.
func (h *LatencyHistogram) Mean() time.Duration { return h.Snapshot().Mean() }

// Merge folds other's counts into h: both histograms share one fixed
// bucket layout, so the merge is a plain per-bucket sum.
func (h *LatencyHistogram) Merge(other *LatencyHistogram) {
	if other == nil {
		return
	}
	for i := range other.buckets {
		if n := other.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
}

// Quantile estimates the q-th quantile (0..1) of the histogram.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// Mean returns the snapshot's mean observation.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.N == 0 {
		return 0
	}
	return time.Duration(s.SumNs / s.N)
}

// Quantile estimates the q-th quantile (0..1) of the snapshot.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation (1-based, nearest-rank on the
	// cumulative counts; interpolation below recovers sub-bucket
	// resolution).
	rank := int64(math.Ceil(q * float64(s.N)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := int64(0)
			if i > 0 {
				lo = bucketUpper(i - 1)
			}
			hi := bucketUpper(i)
			// Linear interpolation within the bucket by the rank's
			// position among the bucket's occupants.
			frac := float64(rank-cum) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += c
	}
	return time.Duration(bucketUpper(numBuckets - 1))
}
