package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Known dataset: population variance 4, sample variance 32/7.
	if got := w.Variance(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := w.Stddev(); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("Stddev = %v", got)
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Errorf("single sample: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestMean(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Mean(nil) should return ErrEmpty")
	}
	got, err := Mean([]float64{1, 2, 3})
	if err != nil || got != 2 {
		t.Errorf("Mean = %v, %v", got, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{p: 0, want: 10},
		{p: 100, want: 50},
		{p: 50, want: 30},
		{p: 25, want: 20},
		{p: 90, want: 46},
		{p: -5, want: 10},
		{p: 150, want: 50},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Error("Percentile(nil) should return ErrEmpty")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestLinearFit(t *testing.T) {
	// Exact line y = 3 + 2x.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9, 11}
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-3) > 1e-9 {
		t.Errorf("fit = %v, %v; want 2, 3", slope, intercept)
	}
	if r2 := RSquared(xs, ys, slope, intercept); math.Abs(r2-1) > 1e-12 {
		t.Errorf("R² = %v, want 1", r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); !errors.Is(err, ErrEmpty) {
		t.Error("single point should return ErrEmpty")
	}
	if _, _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x should error")
	}
}

// Property: Welford matches the two-pass mean/variance on random data.
func TestWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		scale := 1 + math.Abs(mean) + variance
		return math.Abs(w.Mean()-mean) < 1e-6*scale && math.Abs(w.Variance()-variance) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLatencyRecorder(t *testing.T) {
	var r LatencyRecorder
	if r.Mean() != 0 || r.Percentile(99) != 0 || r.Max() != 0 || r.N() != 0 {
		t.Error("empty recorder should report zeros")
	}
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond} {
		r.Record(d)
	}
	if r.N() != 3 {
		t.Errorf("N = %d", r.N())
	}
	if got := r.Mean(); got != 2*time.Millisecond {
		t.Errorf("Mean = %v", got)
	}
	if got := r.Max(); got != 3*time.Millisecond {
		t.Errorf("Max = %v", got)
	}
	if got := r.Total(); got != 6*time.Millisecond {
		t.Errorf("Total = %v", got)
	}
	if got := r.Percentile(50); got != 2*time.Millisecond {
		t.Errorf("P50 = %v", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 3}
	m, err := Median(in)
	if err != nil || m != 3 {
		t.Errorf("Median = %v, %v", m, err)
	}
	if in[0] != 5 || in[1] != 1 || in[2] != 3 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

// TestPercentileEstimatorTable pins the interpolating estimator (R-7)
// against hand-computed values, including the cases where it diverges
// from nearest-rank.
func TestPercentileEstimatorTable(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"single", []float64{7}, 50, 7},
		{"min", []float64{1, 2, 3, 4}, 0, 1},
		{"max", []float64{1, 2, 3, 4}, 100, 4},
		// R-7 median of an even count is the midpoint; nearest-rank
		// would return 20.
		{"median-even", []float64{10, 20, 30, 40}, 50, 25},
		{"median-odd", []float64{10, 20, 30}, 50, 20},
		// rank = 0.75*(5-1) = 3.0 exactly -> sorted[3].
		{"exact-rank", []float64{1, 2, 3, 4, 5}, 75, 4},
		// rank = 0.9*(5-1) = 3.6 -> 4*(0.4) + 5*(0.6) = 4.6.
		{"interpolated", []float64{1, 2, 3, 4, 5}, 90, 4.6},
		{"unsorted-input", []float64{40, 10, 30, 20}, 50, 25},
		{"clamp-low", []float64{5, 6}, -10, 5},
		{"clamp-high", []float64{5, 6}, 200, 6},
	}
	for _, tc := range cases {
		got, err := Percentile(tc.xs, tc.p)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: Percentile(%v, %v) = %v, want %v", tc.name, tc.xs, tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty input should error")
	}
}

// TestPercentileKnownDistributions checks quantile estimates against the
// analytic quantiles of sampled distributions.
func TestPercentileKnownDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 50000

	// Uniform [0, 1): quantile q is q.
	uni := make([]float64, n)
	for i := range uni {
		uni[i] = rng.Float64()
	}
	for _, p := range []float64{10, 50, 90, 99} {
		got, err := Percentile(uni, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-p/100) > 0.01 {
			t.Errorf("uniform P(%v) = %v, want %v", p, got, p/100)
		}
	}

	// Exponential(λ=1): quantile q is -ln(1-q).
	exp := make([]float64, n)
	for i := range exp {
		exp[i] = rng.ExpFloat64()
	}
	for _, p := range []float64{50, 90, 99} {
		got, err := Percentile(exp, p)
		if err != nil {
			t.Fatal(err)
		}
		want := -math.Log(1 - p/100)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("exponential P(%v) = %v, want %v", p, got, want)
		}
	}
}

// TestLatencyRecorderMerge verifies the merged recorder matches a
// recorder fed the concatenated stream exactly.
func TestLatencyRecorderMerge(t *testing.T) {
	var a, b, all LatencyRecorder
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		d := time.Duration(rng.Int63n(1_000_000))
		a.Record(d)
		all.Record(d)
	}
	for i := 0; i < 700; i++ {
		d := time.Duration(rng.Int63n(10_000_000))
		b.Record(d)
		all.Record(d)
	}
	a.Merge(&b)
	a.Merge(nil)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	for _, p := range []float64{50, 95, 99} {
		if got, want := a.Percentile(p), all.Percentile(p); got != want {
			t.Errorf("P(%v): merged %v != concatenated %v", p, got, want)
		}
	}
	if a.Mean() != all.Mean() || a.Max() != all.Max() || a.Total() != all.Total() {
		t.Error("merged summary stats diverge from concatenated")
	}
}

// The summaries below have no caller outside the tests; each reduces to
// the package's Welford, Percentile or LatencyRecorder state.

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Variance()) }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean(), nil
}

// Median is the 50th percentile.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// N returns the number of recorded samples.
func (r *LatencyRecorder) N() int { return len(r.samples) }

// Merge appends other's samples into r: percentiles of the merged
// recorder equal percentiles over the concatenated samples.
func (r *LatencyRecorder) Merge(other *LatencyRecorder) {
	if other == nil {
		return
	}
	r.samples = append(r.samples, other.samples...)
}

// Total returns the sum of all recorded latencies.
func (r *LatencyRecorder) Total() time.Duration {
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum
}
