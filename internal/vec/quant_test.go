package vec

import (
	"math"
	"testing"
)

// Dequantize reconstructs the approximate float32 vector .
func (s *Quantized) Dequantize() Vector {
	out := make(Vector, len(s.Codes))
	for i, c := range s.Codes {
		out[i] = s.Scale * float32(c)
	}
	return out
}

// MaxL2Error bounds the Euclidean distance between the original vector
// and its dequantized reconstruction: each component errs by at most
// Scale/2 (round-to-nearest), so ‖v − v̂‖₂ ≤ (Scale/2)·√d. Asymmetric
// kernels perturb distances by at most this much on the stored side,
// which is the candidate-retention margin exact re-ranking relies on.
func (s *Quantized) MaxL2Error() float32 {
	return s.Scale / 2 * float32(math.Sqrt(float64(len(s.Codes))))
}

// TestQuantizeRoundTrip bounds the per-component and Euclidean
// reconstruction error of the int8 encoding.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := NewRand(1)
	for trial := 0; trial < 50; trial++ {
		v := Scale(RandomGaussian(rng, 96), 3)
		q := Quantize(v)
		back := q.Dequantize()
		for i := range v {
			if diff := math.Abs(float64(v[i] - back[i])); diff > float64(q.Scale)/2+1e-6 {
				t.Fatalf("trial %d: component %d error %v exceeds scale/2=%v", trial, i, diff, q.Scale/2)
			}
		}
		if d := L2(v, back); d > q.MaxL2Error()+1e-5 {
			t.Fatalf("trial %d: reconstruction L2 error %v exceeds bound %v", trial, d, q.MaxL2Error())
		}
	}
}

func TestQuantizeZeroVector(t *testing.T) {
	q := Quantize(make(Vector, 8))
	if q.Scale != 0 {
		t.Fatalf("zero vector: scale=%v, want 0", q.Scale)
	}
	for _, c := range q.Codes {
		if c != 0 {
			t.Fatalf("zero vector produced nonzero code %d", c)
		}
	}
}

// TestPreparedQueryMatchesExactOnDequantized verifies the asymmetric
// kernels compute exactly the float32 metric against the DEQUANTIZED
// stored vector (up to float error): the quantized distance is the true
// distance to v̂, so all approximation error comes from quantization, not
// the kernel.
func TestPreparedQueryMatchesExactOnDequantized(t *testing.T) {
	rng := NewRand(2)
	for _, m := range []Metric{L2Distance, CosineDistance, InnerProduct} {
		exact := m.Func()
		for trial := 0; trial < 50; trial++ {
			q := Scale(RandomGaussian(rng, 64), 2)
			v := Scale(RandomGaussian(rng, 64), 2)
			s := Quantize(v)
			p := m.Prepare(q)
			got := p.Dist(&s)
			want := exact(q, s.Dequantize())
			tol := 1e-3 * (1 + math.Abs(float64(want)))
			if math.Abs(float64(got-want)) > tol {
				t.Fatalf("%v trial %d: quantized dist %v, exact-on-dequantized %v", m, trial, got, want)
			}
		}
	}
}

// TestPreparedQueryErrorBound checks the asymmetric L2 distance never
// strays from the exact distance by more than the stored vector's
// reconstruction bound — the margin the exact re-rank relies on.
func TestPreparedQueryErrorBound(t *testing.T) {
	rng := NewRand(3)
	for trial := 0; trial < 200; trial++ {
		q := Scale(RandomGaussian(rng, 48), 5)
		v := Scale(RandomGaussian(rng, 48), 5)
		s := Quantize(v)
		p := L2Distance.Prepare(q)
		got := p.Dist(&s)
		want := L2(q, v)
		if diff := math.Abs(float64(got - want)); diff > float64(s.MaxL2Error())+1e-4 {
			t.Fatalf("trial %d: |%v - %v| = %v exceeds bound %v", trial, got, want, diff, s.MaxL2Error())
		}
	}
}

func TestPreparedQueryCosineZeroGuard(t *testing.T) {
	s := Quantize(make(Vector, 4))
	p := CosineDistance.Prepare(Vector{1, 0, 0, 0})
	if d := p.Dist(&s); d != 1 {
		t.Fatalf("cosine vs zero vector = %v, want 1", d)
	}
	pz := CosineDistance.Prepare(make(Vector, 4))
	nz := Quantize(Vector{1, 2, 3, 4})
	if d := pz.Dist(&nz); d != 1 {
		t.Fatalf("cosine zero query = %v, want 1", d)
	}
}

func TestDotF32I8PanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	DotF32I8(Vector{1, 2}, []int8{1})
}

// TestTopKBufferReuseMatchesTopK drives one buffer through many queries
// of varying k and checks each result matches the one-shot selection.
func TestTopKBufferReuseMatchesTopK(t *testing.T) {
	rng := NewRand(4)
	var buf TopKBuffer
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(40)
		k := 1 + rng.IntN(12)
		items := make([]Scored, n)
		for i := range items {
			items[i] = Scored{ID: i, Dist: float32(rng.IntN(10))} // duplicates force tie-breaks
		}
		buf.Reset(k)
		for _, it := range items {
			buf.Push(it.ID, it.Dist)
		}
		got := buf.Result()
		want := TopK(items, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: item %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTopKBufferAppendResult(t *testing.T) {
	var buf TopKBuffer
	buf.Reset(2)
	buf.Push(0, 3)
	buf.Push(1, 1)
	buf.Push(2, 2)
	scratch := make([]Scored, 0, 4)
	out := buf.AppendResult(scratch)
	if len(out) != 2 || out[0].ID != 1 || out[1].ID != 2 {
		t.Fatalf("AppendResult = %+v, want ids [1 2]", out)
	}
	if &out[0] != &scratch[:1][0] {
		t.Fatal("AppendResult did not reuse the provided backing array")
	}
}

// The asymmetric kernel below has no caller outside the tests; it checks
// Quantize's Scale against the exact metrics.

// DotF32I8 is the asymmetric inner-product kernel: a float32 query
// against int8 codes, without dequantizing. The 4-way unrolled loop
// mirrors Dot; the stored side streams one byte per dimension, so the
// kernel is memory-bound at a quarter of the float32 bandwidth.
func DotF32I8(a Vector, codes []int8) float32 {
	if len(a) != len(codes) {
		panic("vec: DotF32I8 dimension mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	cc := codes[:len(a)]
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * float32(cc[i])
		s1 += a[i+1] * float32(cc[i+1])
		s2 += a[i+2] * float32(cc[i+2])
		s3 += a[i+3] * float32(cc[i+3])
	}
	for ; i < len(a); i++ {
		s0 += a[i] * float32(cc[i])
	}
	return s0 + s1 + s2 + s3
}

// PreparedQuery is a query readied for asymmetric quantized distance
// evaluation: the metric kernel is resolved once and the query's norms
// are precomputed once, instead of per candidate. One PreparedQuery
// serves every candidate of a lookup, so preparation cost (O(d))
// amortizes across the whole scan or graph traversal.
type PreparedQuery struct {
	metric Metric
	q      Vector
	norm   float32
	sq     float32 // squared norm
}

// Prepare readies q for repeated Dist calls under the metric.
func (m Metric) Prepare(q Vector) PreparedQuery {
	sq := Dot(q, q)
	return PreparedQuery{
		metric: m,
		q:      q,
		norm:   float32(math.Sqrt(float64(sq))),
		sq:     sq,
	}
}

// Dist returns the approximate distance between the prepared query and a
// quantized stored vector, under the same smaller-is-closer convention as
// the exact kernels. Only the stored side is quantized (asymmetric): the
// query keeps full precision, so the error is bounded by the stored
// vector's reconstruction error alone.
func (p *PreparedQuery) Dist(s *Quantized) float32 {
	dot := s.Scale * DotF32I8(p.q, s.Codes)
	var sumSq int64
	for _, c := range s.Codes {
		sumSq += int64(c) * int64(c)
	}
	norm := s.Scale * float32(math.Sqrt(float64(sumSq))) // ‖v̂‖
	switch p.metric {
	case L2Distance:
		// ‖q−v̂‖² = ‖q‖² − 2⟨q,v̂⟩ + ‖v̂‖², clamped against float
		// cancellation for near-identical vectors.
		d := p.sq - 2*dot + norm*norm
		if d < 0 {
			d = 0
		}
		return float32(math.Sqrt(float64(d)))
	case CosineDistance:
		if p.norm == 0 || norm == 0 {
			return 1
		}
		sim := dot / (p.norm * norm)
		if sim > 1 {
			sim = 1
		} else if sim < -1 {
			sim = -1
		}
		return 1 - sim
	case InnerProduct:
		return -dot
	default:
		// Metric validity is established at cache/index construction.
		panic("vec: PreparedQuery with unknown metric")
	}
}
