// Package stats provides the small statistical toolkit behind the
// evaluation harness: streaming mean/variance (Welford), exact
// percentiles, latency summaries, and least-squares fits. The paper
// reports averages over five seeded runs (§4.2.4) and fits a Zipf exponent
// by regression on the log-log rank-frequency curve (Fig. 2); both are
// built on this package.
//
// Percentile is exact: it sorts the retained samples, which suits offline
// summaries of a finished run. Live latency for /metrics goes through
// telemetry.LatencyHistogram instead, a log-bucketed streaming histogram
// that observes lock-free, keeps no samples, and bounds quantile error
// relative to the value.
package stats

import (
	"errors"
	"math"
	"sort"
	"time"
)

// ErrEmpty is returned when a computation needs at least one sample.
var ErrEmpty = errors.New("stats: no samples")

// Welford accumulates a running mean and variance in one pass. The zero
// value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with <2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks — the "C = 1" variant (R-7, the
// numpy/Excel default): the target rank is p/100*(n-1) on the sorted
// samples, and fractional ranks blend the two neighbors. This differs
// from the nearest-rank method (R-1), which always returns an observed
// sample: for xs = [10, 20, 30, 40], P(50) here is 25 (midpoint), where
// nearest-rank would give 20. Interpolation is smoother for the small n
// of per-run summaries; for n >= ~1000 the two agree to well under the
// noise floor. P(0) and P(100) are the min and max exactly.
// xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0], nil
	}
	if p >= 100 {
		return sorted[len(sorted)-1], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// LatencyRecorder accumulates durations and reports summary statistics.
// The evaluation reports retrieval latency means (Fig. 6c, 7d) and the
// cache-lookup distributions (Fig. 10, 11) through this type.
type LatencyRecorder struct {
	samples []time.Duration
}

// Record appends one latency sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.samples = append(r.samples, d)
}

// Mean returns the mean latency, or 0 with no samples.
func (r *LatencyRecorder) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Percentile returns the p-th percentile latency, or 0 with no samples.
// The estimator is Percentile's linear interpolation between closest
// ranks (R-7), NOT nearest-rank: with few samples the result may fall
// between two observed latencies. See Percentile for the exact contract.
func (r *LatencyRecorder) Percentile(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	xs := make([]float64, len(r.samples))
	for i, s := range r.samples {
		xs[i] = float64(s)
	}
	v, err := Percentile(xs, p)
	if err != nil {
		return 0
	}
	return time.Duration(v)
}

// Max returns the largest recorded latency.
func (r *LatencyRecorder) Max() time.Duration {
	var m time.Duration
	for _, s := range r.samples {
		if s > m {
			m = s
		}
	}
	return m
}

// LinearFit fits y = intercept + slope*x by ordinary least squares.
// It requires at least two points with non-zero x variance.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, errors.New("stats: x/y length mismatch")
	}
	if len(xs) < 2 {
		return 0, 0, ErrEmpty
	}
	var sx, sy Welford
	for i := range xs {
		sx.Add(xs[i])
		sy.Add(ys[i])
	}
	var cov float64
	for i := range xs {
		cov += (xs[i] - sx.Mean()) * (ys[i] - sy.Mean())
	}
	varx := sx.Variance() * float64(len(xs)-1)
	if varx == 0 {
		return 0, 0, errors.New("stats: degenerate x values")
	}
	slope = cov / varx
	intercept = sy.Mean() - slope*sx.Mean()
	return slope, intercept, nil
}

// RSquared returns the coefficient of determination of the linear model
// (slope, intercept) on (xs, ys).
func RSquared(xs, ys []float64, slope, intercept float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var my Welford
	for _, y := range ys {
		my.Add(y)
	}
	var ssRes, ssTot float64
	for i := range xs {
		pred := intercept + slope*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - my.Mean()) * (ys[i] - my.Mean())
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}
