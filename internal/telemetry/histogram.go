package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout. Durations are bucketed at the bounds the
// exposition publishes: bucket k < numBounds holds the observations in
// (1µs·2ᵏ⁻¹, 1µs·2ᵏ] (bucket 0 everything up to 1µs), and bucket
// numBounds those above the last bound, ≈ 8.4s. Bounds are inclusive, as
// Prometheus' le is, so a cumulative sum of the stored buckets is
// exactly each le series. 25 buckets are 200 B of atomics per histogram.
const (
	numBounds  = 24
	numBuckets = numBounds + 1
)

// bucketOf maps a duration in nanoseconds to its bucket: the smallest k
// with ns ≤ 1000·2ᵏ, clamped to the overflow bucket.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return min(bits.Len64(uint64(ns-1)/1000), numBounds)
}

// LatencyHistogram is a lock-free streaming histogram of durations:
// Observe is three atomic adds, safe for any number of concurrent
// writers, and the exposition reads the buckets without stopping
// writers. The zero value is NOT ready; use NewLatencyHistogram.
type LatencyHistogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// NewLatencyHistogram creates an empty histogram.
func NewLatencyHistogram() *LatencyHistogram { return &LatencyHistogram{} }

// Observe records one duration.
func (h *LatencyHistogram) Observe(d time.Duration) {
	ns := max(int64(d), 0)
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}
