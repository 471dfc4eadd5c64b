package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestBucketGeometry checks bucketOf against its definition, the
// smallest k with ns ≤ 1000·2ᵏ: at, one under and one over every bound,
// at 0 and negatives, and past the last bound.
func TestBucketGeometry(t *testing.T) {
	bound := func(k int) int64 { return int64(1000) << k }
	want := func(ns int64) int {
		for k := 0; k < numBounds; k++ {
			if ns <= bound(k) {
				return k
			}
		}
		return numBounds
	}
	check := func(ns int64) {
		if got, w := bucketOf(ns), want(ns); got != w {
			t.Fatalf("bucketOf(%d) = %d, want %d", ns, got, w)
		}
	}
	for _, ns := range []int64{-5, 0, 1, math.MaxInt64} {
		check(ns)
	}
	for k := 0; k < numBounds; k++ {
		for _, ns := range []int64{bound(k) - 1, bound(k), bound(k) + 1} {
			check(ns)
		}
	}
	for ns := int64(1); ns > 0 && ns < int64(1)<<50; ns = ns*3 + 7 {
		check(ns)
	}
	if size := unsafe.Sizeof(LatencyHistogram{}); size > 256 {
		t.Fatalf("a histogram holds %d B of counters, want ≤ 256", size)
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
	if got, want := a.Snapshot(), union.Snapshot(); got != want {
		t.Fatalf("merged snapshot = %+v, want %+v", got, want)
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
			_ = h.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

// BenchmarkHistogramObserve measures the hot-path cost of one
// observation (three atomic adds plus a bit scan), on one goroutine and
// on two sharing the histogram.
func BenchmarkHistogramObserve(b *testing.B) {
	for _, goroutines := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", goroutines), func(b *testing.B) {
			h := NewLatencyHistogram()
			var wg sync.WaitGroup
			per := b.N / goroutines
			b.ResetTimer()
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					d := 137 * time.Microsecond
					for i := 0; i < per; i++ {
						h.Observe(d)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// The helpers below have no caller outside the tests.

// Count returns the number of observations.
func (h *LatencyHistogram) Count() int64 { return h.count.Load() }

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

// HistogramSnapshot is a plain (non-atomic) copy of a histogram's state.
type HistogramSnapshot struct {
	Buckets [numBuckets]int64
	N       int64
	SumNs   int64
}

// Snapshot copies the current counters. Concurrent writers may move the
// histogram mid-copy; the snapshot is then off by in-flight observations,
// which is acceptable for monitoring (and exact once writers quiesce).
func (h *LatencyHistogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.N = h.count.Load()
	s.SumNs = h.sum.Load()
	return s
}
