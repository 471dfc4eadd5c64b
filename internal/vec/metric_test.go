package vec

import (
	"slices"
	"testing"
)

func TestMetricString(t *testing.T) {
	tests := []struct {
		give Metric
		want string
	}{
		{L2Distance, "l2"},
		{CosineDistance, "cosine"},
		{InnerProduct, "ip"},
		{Metric(42), "metric(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.give), got, tt.want)
		}
	}
}

func TestMetricFunc(t *testing.T) {
	a, b := Vector{0, 0}, Vector{3, 4}
	if got := L2Distance.Func()(a, b); got != 5 {
		t.Errorf("L2Distance kernel = %v, want 5", got)
	}
	if got := InnerProduct.Func()(Vector{1, 2}, Vector{3, 4}); got != -11 {
		t.Errorf("InnerProduct kernel = %v, want -11", got)
	}
	if got := CosineDistance.Func()(Vector{1, 0}, Vector{1, 0}); got != 0 {
		t.Errorf("CosineDistance kernel identical = %v, want 0", got)
	}
}

func TestMetricFuncPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown metric")
		}
	}()
	Metric(99).Func()
}

func TestRandomUnitHasUnitNorm(t *testing.T) {
	rng := NewRand(3)
	for i := 0; i < 10; i++ {
		v := RandomUnit(rng, 32)
		if n := float64(Norm(v)); !almostEqual(n, 1, 1e-4) {
			t.Errorf("RandomUnit norm = %v, want 1", n)
		}
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a := RandomGaussian(NewRand(42), 16)
	b := RandomGaussian(NewRand(42), 16)
	if !slices.Equal(a, b) {
		t.Error("same seed must generate identical vectors")
	}
	c := RandomGaussian(NewRand(43), 16)
	if slices.Equal(a, c) {
		t.Error("different seeds should generate different vectors")
	}
}

func TestGaussianAround(t *testing.T) {
	rng := NewRand(5)
	center := RandomUnit(rng, 64)
	Scale(center, 10)
	pt := GaussianAround(rng, center, 0.01)
	if d := float64(L2(center, pt)); d > 1 {
		t.Errorf("point with tiny sigma should be near the center, dist=%v", d)
	}
	far := GaussianAround(rng, center, 5)
	if d := float64(L2(center, far)); d < 1 {
		t.Errorf("point with big sigma should be far from the center, dist=%v", d)
	}
}
