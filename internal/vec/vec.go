// Package vec provides the dense-vector primitives used throughout the
// Proximity reproduction: distance kernels, norms, top-k selection, and
// deterministic random vector generation.
//
// The paper's Rust implementation uses portable-simd for the Euclidean
// distance computation on the cache's hot path (Algorithm 1, line 2). The
// Go compiler does not auto-vectorize, so the kernels here are scalar: a
// 4-way unrolled loop with bounds-check elimination, whose four
// independent accumulators keep the floating-point add pipeline full.
// Threshold scans (is some key within τ? is this vector among the k
// nearest?) go through L2Bounded, which abandons a vector as soon as its
// partial sum proves it out of range; L2SquaredHead is that partial sum
// at its first check, for scans that rank or skip rows on their first
// cache line alone.
//
// The package's assembly (simd_amd64.s) is AVX2, chosen once at
// start-up by CPUID; other CPUs run portable bodies, which the tests
// also hold it to. Its main kernel is Heads.Next's head test:
// L2SquaredHead for eight rows at a time over heads stored block-major,
// so that one load reads one float of eight rows, with sums
// bit-identical to the scalar ones. The other is Finite, the caches'
// check on every key they store. Both stream contiguous memory, so
// their cost is the arithmetic. Scans over scattered rows, as the
// vector database's are, wait on memory instead, and a SIMD kernel
// measured there gained nothing; they stay scalar. See
// BenchmarkVecKernels in the repository root for the measured gaps.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense embedding vector. All kernels in this package treat
// vectors as immutable unless the doc comment says otherwise.
type Vector = []float32

// ErrDimensionMismatch is returned by checked kernel wrappers when the two
// operands have different lengths.
var ErrDimensionMismatch = errors.New("vec: dimension mismatch")

// L2Squared returns the squared Euclidean distance between a and b.
// It panics if the lengths differ; use CheckedL2Squared at trust
// boundaries. This is the hot kernel of the Proximity cache: a FLAT cache
// lookup calls it once per cached entry.
func L2Squared(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: L2Squared dimension mismatch: %d vs %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	// 4-way unrolled main loop. The b[:len(a)] re-slice lets the compiler
	// drop bounds checks inside the loop body.
	bb := b[:len(a)]
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - bb[i]
		d1 := a[i+1] - bb[i+1]
		d2 := a[i+2] - bb[i+2]
		d3 := a[i+3] - bb[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - bb[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// HeadLen is how many floats L2SquaredBounded accumulates between two
// checks of the running sum against the bound, and so how many it has
// read at its first check: 64 bytes, one cache line of an aligned row.
const HeadLen = 16

// L2SquaredBounded is L2Squared with early abandon: it returns ok=false
// as soon as the running sum exceeds bound, checked every HeadLen
// floats and once at the end. The accumulators and the association of
// their final sum are exactly L2Squared's, so with ok=true sum is
// bit-identical to L2Squared(a, b). Every accumulator only ever grows
// (a rounded add of a non-negative term never decreases it) and rounded
// addition is monotone in each operand, so a checked partial sum never
// exceeds the final one: ok=false proves L2Squared(a, b) > bound. A NaN
// bound never abandons. It panics if the lengths differ.
func L2SquaredBounded(a, b Vector, bound float32) (sum float32, ok bool) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: L2SquaredBounded dimension mismatch: %d vs %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	bb := b[:len(a)]
	// One stride per iteration, written out: four rounds of the 4-way
	// step with constant indices (no inner loop, no bounds checks), which
	// keeps the never-abandoning case as fast as L2Squared.
	for len(a) >= HeadLen && len(bb) >= HeadLen {
		d0, d1, d2, d3 := a[0]-bb[0], a[1]-bb[1], a[2]-bb[2], a[3]-bb[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d0, d1, d2, d3 = a[4]-bb[4], a[5]-bb[5], a[6]-bb[6], a[7]-bb[7]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d0, d1, d2, d3 = a[8]-bb[8], a[9]-bb[9], a[10]-bb[10], a[11]-bb[11]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d0, d1, d2, d3 = a[12]-bb[12], a[13]-bb[13], a[14]-bb[14], a[15]-bb[15]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		if sum = s0 + s1 + s2 + s3; sum > bound {
			return sum, false
		}
		a, bb = a[HeadLen:], bb[HeadLen:]
	}
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - bb[i]
		d1 := a[i+1] - bb[i+1]
		d2 := a[i+2] - bb[i+2]
		d3 := a[i+3] - bb[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - bb[i]
		s0 += d * d
	}
	sum = s0 + s1 + s2 + s3
	return sum, !(sum > bound)
}

// L2SquaredHead returns the running sum L2SquaredBounded checks first:
// the first HeadLen floats through the same four accumulators in the
// same order, summed the same way. So it is bit-identical to
// L2Squared(a[:HeadLen], b[:HeadLen]), never above L2Squared(a, b),
// and for equal lengths of at least HeadLen, L2SquaredHead(a, b) > bound
// exactly when L2SquaredBounded(a, b, bound) abandons at its first
// check. A scan can therefore rank or skip rows on one cache line each
// without changing any result. It panics if a or b is shorter than
// HeadLen.
func L2SquaredHead(a, b Vector) float32 {
	a, b = a[:HeadLen], b[:HeadLen]
	var s0, s1, s2, s3 float32
	d0, d1, d2, d3 := a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
	s0 += d0 * d0
	s1 += d1 * d1
	s2 += d2 * d2
	s3 += d3 * d3
	d0, d1, d2, d3 = a[4]-b[4], a[5]-b[5], a[6]-b[6], a[7]-b[7]
	s0 += d0 * d0
	s1 += d1 * d1
	s2 += d2 * d2
	s3 += d3 * d3
	d0, d1, d2, d3 = a[8]-b[8], a[9]-b[9], a[10]-b[10], a[11]-b[11]
	s0 += d0 * d0
	s1 += d1 * d1
	s2 += d2 * d2
	s3 += d3 * d3
	d0, d1, d2, d3 = a[12]-b[12], a[13]-b[13], a[14]-b[14], a[15]-b[15]
	s0 += d0 * d0
	s1 += d1 * d1
	s2 += d2 * d2
	s3 += d3 * d3
	return s0 + s1 + s2 + s3
}

// Finite reports whether every component of v is finite: no NaN and no
// ±Inf. On amd64 it tests eight components a step in AVX2
// (simd_amd64.s).
func Finite(v Vector) bool { return finite(v) }

// finiteGeneric is Finite's portable body and its reference.
func finiteGeneric(v []float32) bool {
	for _, x := range v {
		if math.Float32bits(x)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b Vector) float32 {
	return float32(math.Sqrt(float64(L2Squared(a, b))))
}

// SquaredBound returns the squared-sum bound that stands in for the
// distance threshold maxDist: a sum s > SquaredBound(maxDist) proves
// float32(sqrt(s)) > maxDist. It is the bound L2Bounded passes to
// L2SquaredBounded, so a scan that tests L2SquaredHead against it
// reproduces L2Bounded's first check exactly. A NaN maxDist yields NaN,
// which no sum exceeds.
//
// maxDist is squared in float64 and inflated by 2⁻²¹ (four float32
// ulps). That covers the three roundings between a sum s and the
// comparison it stands in for — the float64 sqrt, its conversion to
// float32, and the bound's own conversion: float32(sqrt(s)) ≤ maxDist
// implies s < next(maxDist)² ≤ maxDist²·(1+2⁻²³)², and rounding is
// monotone. A subnormal or zero maxDist yields 0, which only a zero sum
// meets, as required.
//
// It is monotone on non-negative maxDist: SquaredBound(min(a, b)) =
// min(SquaredBound(a), SquaredBound(b)), bit for bit, every step being a
// non-decreasing rounding. So a scan may test a head against a row's own
// bound and a running limit separately, as Heads.Next does, where
// L2Bounded would test it against the bound of the smaller distance.
func SquaredBound(maxDist float32) float32 {
	m := float64(maxDist)
	return float32(m * m * (1 + 0x1p-21))
}

// L2Bounded is L2 for threshold scans: with ok=true, dist is
// bit-identical to L2(a, b); ok=false proves L2(a, b) > maxDist, found
// without finishing the sum (see SquaredBound for the margin). ok=true
// does not promise dist ≤ maxDist — callers compare as they did with
// L2. A NaN maxDist never abandons.
func L2Bounded(a, b Vector, maxDist float32) (dist float32, ok bool) {
	sum, ok := L2SquaredBounded(a, b, SquaredBound(maxDist))
	if !ok {
		return 0, false
	}
	return float32(math.Sqrt(float64(sum))), true
}

// CheckedL2 is the error-returning variant of L2 for inputs that cross a
// trust boundary (e.g. the HTTP middleware).
func CheckedL2(a, b Vector) (float32, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimensionMismatch, len(a), len(b))
	}
	return L2(a, b), nil
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot dimension mismatch: %d vs %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	bb := b[:len(a)]
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * bb[i]
		s1 += a[i+1] * bb[i+1]
		s2 += a[i+2] * bb[i+2]
		s3 += a[i+3] * bb[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * bb[i]
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of a.
func Norm(a Vector) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// Cosine returns the cosine distance (1 - cosine similarity) between a and
// b. Zero vectors are treated as maximally distant (distance 1) rather
// than producing NaN, so the cache never caches-hit on garbage input.
func Cosine(a, b Vector) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 1
	}
	sim := Dot(a, b) / (na * nb)
	// Clamp for float error so downstream τ comparisons are well behaved.
	if sim > 1 {
		sim = 1
	} else if sim < -1 {
		sim = -1
	}
	return 1 - sim
}

// NegDot returns the negated inner product, so that all three supported
// metrics are "smaller is closer".
func NegDot(a, b Vector) float32 { return -Dot(a, b) }

// Add returns a new vector a+b.
func Add(a, b Vector) Vector {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Add dimension mismatch: %d vs %d", len(a), len(b)))
	}
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// AXPY computes dst += alpha*x in place.
func AXPY(dst Vector, alpha float32, x Vector) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("vec: AXPY dimension mismatch: %d vs %d", len(dst), len(x)))
	}
	xx := x[:len(dst)]
	for i := range dst {
		dst[i] += alpha * xx[i]
	}
}

// Scale multiplies v by alpha in place and returns v for chaining.
func Scale(v Vector, alpha float32) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// Normalize scales v in place to unit norm and returns v. A zero vector is
// returned unchanged.
func Normalize(v Vector) Vector {
	n := Norm(v)
	if n == 0 {
		return v
	}
	return Scale(v, 1/n)
}

// Clone returns a copy of v. Cache and index code clones at ownership
// boundaries so callers may reuse their buffers.
func Clone(v Vector) Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Equal reports whether a and b are identical element-wise.
func Equal(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
