package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry. Durations are bucketed on a log scale —
// bucket width grows with the value, so one fixed layout spans nanosecond
// cache hits and multi-second tail stalls with bounded RELATIVE error,
// which is what latency quantiles need (a ±12% p99 is useful; a ±4ms p99
// over microsecond lookups is not).
//
// Each power-of-two octave is split into 2^subBits linear sub-buckets, so
// the worst-case relative quantile error is 2^-subBits ≈ 12.5%. With 40
// octaves (1ns up to ~73 minutes) the whole layout is 320 buckets — 2.5KB
// of atomics per histogram, cheap enough to hold one per stage per
// process.
const (
	subBits    = 3
	subBuckets = 1 << subBits
	octaves    = 40
	numBuckets = octaves * subBuckets
)

// bucketOf maps a duration in nanoseconds to its bucket index: the top
// subBits bits after the leading one select the linear sub-bucket within
// the value's octave. Values beyond the last octave clamp into it, so
// counts are never dropped.
func bucketOf(ns int64) int {
	if ns < subBuckets {
		// Below subBuckets the octaves are degenerate (fewer distinct
		// integers than sub-buckets); map tiny values one per bucket.
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 // floor(log2(ns)), exp >= subBits
	sub := (ns >> (uint(exp) - subBits)) & (subBuckets - 1)
	idx := (exp-subBits+1)*subBuckets + int(sub)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketUpper returns the exclusive upper bound (ns) of bucket idx — the
// inverse of bucketOf, used for exposition.
func bucketUpper(idx int) int64 {
	if idx < subBuckets {
		return int64(idx) + 1
	}
	exp := idx/subBuckets + subBits - 1
	sub := int64(idx % subBuckets)
	return int64(1)<<uint(exp) + (sub+1)<<(uint(exp)-subBits)
}

// LatencyHistogram is a lock-free streaming histogram of durations:
// Observe is a pair of atomic adds, safe for any number of concurrent
// writers, and snapshots read the buckets without stopping writers. The zero value is NOT ready; use NewLatencyHistogram.
type LatencyHistogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// NewLatencyHistogram creates an empty histogram.
func NewLatencyHistogram() *LatencyHistogram { return &LatencyHistogram{} }

// Observe records one duration.
func (h *LatencyHistogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// HistogramSnapshot is a plain (non-atomic) copy of a histogram's state,
// the view exposition renders.
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
