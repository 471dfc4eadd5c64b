package zipf

import (
	"math"
	"testing"
	"testing/quick"

	"proximity/internal/vec"
)

func TestNewSamplerValidation(t *testing.T) {
	rng := vec.NewRand(1)
	if _, err := NewSampler(rng, 0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewSampler(rng, -1, 1); err == nil {
		t.Error("n<0 should error")
	}
	if _, err := NewSampler(rng, 10, 0); err == nil {
		t.Error("s=0 should error")
	}
	if _, err := NewSampler(rng, 10, -0.5); err == nil {
		t.Error("s<0 should error")
	}
}

func TestSamplerBounds(t *testing.T) {
	rng := vec.NewRand(2)
	s, err := NewSampler(rng, 50, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		r := s.Next()
		if r < 0 || r >= 50 {
			t.Fatalf("rank %d out of [0, 50)", r)
		}
	}
}

func TestSamplerSingleRank(t *testing.T) {
	s, err := NewSampler(vec.NewRand(3), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if s.Next() != 0 {
			t.Fatal("single-rank sampler must always return 0")
		}
	}
}

func TestSamplerProbability(t *testing.T) {
	s, err := NewSampler(vec.NewRand(4), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unnormalized weights 1, 1/2, 1/3 → normalizer 11/6.
	want := []float64{6.0 / 11, 3.0 / 11, 2.0 / 11}
	var total float64
	for r, w := range want {
		got := s.Probability(r)
		if math.Abs(got-w) > 1e-12 {
			t.Errorf("P(%d) = %v, want %v", r, got, w)
		}
		total += got
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", total)
	}
	if s.Probability(-1) != 0 || s.Probability(3) != 0 {
		t.Error("out-of-range probability should be 0")
	}
}

func TestSamplerSkew(t *testing.T) {
	// With s=0.8 over 100 ranks, rank 0 must dominate rank 50 empirically.
	s, err := NewSampler(vec.NewRand(5), 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 100)
	const draws = 200_000
	for i := 0; i < draws; i++ {
		counts[s.Next()]++
	}
	if counts[0] <= counts[50]*5 {
		t.Errorf("expected strong skew: count[0]=%d count[50]=%d", counts[0], counts[50])
	}
	// Empirical frequency of rank 0 should be close to its probability.
	emp := float64(counts[0]) / draws
	if math.Abs(emp-s.Probability(0)) > 0.01 {
		t.Errorf("empirical P(0) = %v, want ≈ %v", emp, s.Probability(0))
	}
}

func TestRankFrequency(t *testing.T) {
	got := RankFrequency([]string{"a", "b", "a", "c", "a", "b"})
	want := []int{3, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("RankFrequency = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RankFrequency = %v, want %v", got, want)
		}
	}
	if rf := RankFrequency([]int(nil)); len(rf) != 0 {
		t.Errorf("empty input should give empty output, got %v", rf)
	}
}

func TestFitRecoversExponent(t *testing.T) {
	// Generate an exact power law and check the estimator recovers it.
	for _, s := range []float64{0.627, 0.8, 1.5} {
		freqs := make([]int, 200)
		for r := range freqs {
			freqs[r] = int(1e6 * math.Pow(float64(r+1), -s))
		}
		fit, err := Fit(freqs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.Exponent-s) > 0.02 {
			t.Errorf("s=%v: fitted %v", s, fit.Exponent)
		}
		if fit.R2 < 0.999 {
			t.Errorf("s=%v: R² = %v, want ≈ 1", s, fit.R2)
		}
	}
}

func TestFitOnSampledData(t *testing.T) {
	// End-to-end: sample from Zipf(0.8), then fit the empirical curve.
	// Log-log regression over a sampled tail is biased, so allow slack; the
	// point is to recover the right regime, as Fig. 2 does for TripClick.
	s, err := NewSampler(vec.NewRand(6), 500, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	draws := make([]int, 100_000)
	for i := range draws {
		draws[i] = s.Next()
	}
	fit, err := Fit(RankFrequency(draws))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Exponent < 0.5 || fit.Exponent > 1.2 {
		t.Errorf("fitted exponent %v outside plausible window for s=0.8", fit.Exponent)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Fit([]int{5}); err == nil {
		t.Error("single rank should error")
	}
	if _, err := Fit([]int{0, 0, 0}); err == nil {
		t.Error("all-zero input should error")
	}
}

// Property: the sampler is deterministic for a fixed seed and its CDF is
// monotone (Next never returns out-of-range even for extreme u).
func TestSamplerDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		n := 1 + int(seed%97)
		a, err := NewSampler(vec.NewRand(seed), n, 0.7)
		if err != nil {
			return false
		}
		b, err := NewSampler(vec.NewRand(seed), n, 0.7)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			if a.Next() != b.Next() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Probability returns P(rank = r).
func (s *Sampler) Probability(r int) float64 {
	if r < 0 || r >= len(s.cdf) {
		return 0
	}
	if r == 0 {
		return s.cdf[0]
	}
	return s.cdf[r] - s.cdf[r-1]
}
