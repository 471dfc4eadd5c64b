package vec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestL2Squared(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want float32
	}{
		{name: "zero", a: Vector{0, 0, 0}, b: Vector{0, 0, 0}, want: 0},
		{name: "identical", a: Vector{1, 2, 3}, b: Vector{1, 2, 3}, want: 0},
		{name: "unit apart", a: Vector{0}, b: Vector{1}, want: 1},
		{name: "pythagorean", a: Vector{0, 0}, b: Vector{3, 4}, want: 25},
		{name: "negative coords", a: Vector{-1, -2}, b: Vector{1, 2}, want: 20},
		{name: "len 5 exercises tail loop", a: Vector{1, 1, 1, 1, 1}, b: Vector{0, 0, 0, 0, 0}, want: 5},
		{name: "len 7 exercises tail loop", a: Vector{2, 2, 2, 2, 2, 2, 2}, b: Vector{1, 1, 1, 1, 1, 1, 1}, want: 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := L2Squared(tt.a, tt.b); got != tt.want {
				t.Errorf("L2Squared(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestL2SquaredMatchesNaive(t *testing.T) {
	rng := NewRand(7)
	for _, d := range []int{1, 2, 3, 4, 5, 8, 15, 16, 17, 64, 768} {
		a := RandomGaussian(rng, d)
		b := RandomGaussian(rng, d)
		var naive float64
		for i := range a {
			diff := float64(a[i]) - float64(b[i])
			naive += diff * diff
		}
		got := float64(L2Squared(a, b))
		if !almostEqual(got, naive, 1e-3*(1+naive)) {
			t.Errorf("d=%d: unrolled %v vs naive %v", d, got, naive)
		}
	}
}

func TestL2SquaredPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	L2Squared(Vector{1, 2}, Vector{1})
}

func TestCheckedL2(t *testing.T) {
	if _, err := CheckedL2(Vector{1}, Vector{1, 2}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("CheckedL2 mismatch error = %v, want ErrDimensionMismatch", err)
	}
	got, err := CheckedL2(Vector{0, 0}, Vector{3, 4})
	if err != nil {
		t.Fatalf("CheckedL2: %v", err)
	}
	if got != 5 {
		t.Errorf("CheckedL2 = %v, want 5", got)
	}
}

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want float32
	}{
		{name: "orthogonal", a: Vector{1, 0}, b: Vector{0, 1}, want: 0},
		{name: "parallel", a: Vector{1, 2, 3}, b: Vector{2, 4, 6}, want: 28},
		{name: "antiparallel", a: Vector{1, 1}, b: Vector{-1, -1}, want: -2},
		{name: "tail loop", a: Vector{1, 1, 1, 1, 1, 1}, b: Vector{1, 1, 1, 1, 1, 1}, want: 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); got != tt.want {
				t.Errorf("Dot = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestNorm(t *testing.T) {
	if got := Norm(Vector{3, 4}); got != 5 {
		t.Errorf("Norm{3,4} = %v, want 5", got)
	}
	if got := Norm(Vector{0, 0, 0}); got != 0 {
		t.Errorf("Norm zero = %v, want 0", got)
	}
}

func TestCosine(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want float64
		eps  float64
	}{
		{name: "identical direction", a: Vector{1, 2}, b: Vector{2, 4}, want: 0, eps: 1e-6},
		{name: "orthogonal", a: Vector{1, 0}, b: Vector{0, 5}, want: 1, eps: 1e-6},
		{name: "opposite", a: Vector{1, 0}, b: Vector{-3, 0}, want: 2, eps: 1e-6},
		{name: "zero vector treated far", a: Vector{0, 0}, b: Vector{1, 1}, want: 1, eps: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := float64(Cosine(tt.a, tt.b)); !almostEqual(got, tt.want, tt.eps) {
				t.Errorf("Cosine = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAddScaleNormalizeClone(t *testing.T) {
	a := Vector{1, 2}
	b := Vector{3, 4}
	if got := Add(a, b); !slices.Equal(got, Vector{4, 6}) {
		t.Errorf("Add = %v", got)
	}
	v := Vector{2, 0}
	if got := Scale(v, 2); !slices.Equal(got, Vector{4, 0}) {
		t.Errorf("Scale = %v", got)
	}
	n := Normalize(Vector{0, 3})
	if !slices.Equal(n, Vector{0, 1}) {
		t.Errorf("Normalize = %v", n)
	}
	z := Normalize(Vector{0, 0})
	if !slices.Equal(z, Vector{0, 0}) {
		t.Errorf("Normalize zero = %v, want unchanged", z)
	}
	orig := Vector{1, 2, 3}
	cl := Clone(orig)
	cl[0] = 9
	if orig[0] != 1 {
		t.Error("Clone aliases its input")
	}
}

func TestAXPY(t *testing.T) {
	dst := Vector{1, 1, 1}
	AXPY(dst, 2, Vector{1, 2, 3})
	if !slices.Equal(dst, Vector{3, 5, 7}) {
		t.Errorf("AXPY = %v", dst)
	}
}

// Property: L2 satisfies the triangle inequality and symmetry on random
// vectors. This underpins the cache's claim that a hit at tolerance τ
// returns documents retrieved for a query at most τ away.
func TestL2MetricProperties(t *testing.T) {
	rng := NewRand(11)
	f := func(seed uint64) bool {
		r := NewRand(seed)
		d := 1 + int(r.Uint64()%64)
		a := RandomGaussian(rng, d)
		b := RandomGaussian(rng, d)
		c := RandomGaussian(rng, d)
		ab, ba := float64(L2(a, b)), float64(L2(b, a))
		ac, cb := float64(L2(a, c)), float64(L2(c, b))
		if !almostEqual(ab, ba, 1e-4*(1+ab)) {
			return false
		}
		// Triangle inequality with a float tolerance.
		return ab <= ac+cb+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: distance to self is 0 and scaling both operands scales L2
// linearly.
func TestL2ScaleInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		d := 2 + int(r.Uint64()%32)
		a := RandomGaussian(r, d)
		b := RandomGaussian(r, d)
		if L2(a, a) != 0 {
			return false
		}
		a2, b2 := Clone(a), Clone(b)
		Scale(a2, 3)
		Scale(b2, 3)
		return almostEqual(float64(L2(a2, b2)), 3*float64(L2(a, b)), 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFinite puts one NaN or ±Inf at every position of every length up
// to 40, so every remainder mod 8 and every lane, and checks Finite —
// on amd64 its AVX2 body — and the portable body against each other
// and the answer.
func TestFinite(t *testing.T) {
	bad := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for n := 0; n <= 40; n++ {
		v := make(Vector, n)
		for i := range v {
			v[i] = float32(i) - 20 + math.SmallestNonzeroFloat32
		}
		if n > 0 {
			v[n-1] = math.MaxFloat32
		}
		if !Finite(v) || !finiteGeneric(v) {
			t.Fatalf("len %d: finite vector %v reported non-finite (%v, %v)", n, v, Finite(v), finiteGeneric(v))
		}
		for i := range v {
			for _, x := range bad {
				w := Clone(v)
				w[i] = x
				if Finite(w) || finiteGeneric(w) {
					t.Fatalf("len %d: %v at %d reported finite (%v, %v)", n, x, i, Finite(w), finiteGeneric(w))
				}
			}
		}
	}
}

// CheckedL2 is L2 with a dimension check instead of a panic; only tests
// call it.
func CheckedL2(a, b Vector) (float32, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(a), len(b))
	}
	return L2(a, b), nil
}

// Normalize scales v to unit length in place and returns it; the zero
// vector is returned unchanged. Only tests call it.
func Normalize(v Vector) Vector {
	n := Norm(v)
	if n == 0 {
		return v
	}
	return Scale(v, 1/n)
}
