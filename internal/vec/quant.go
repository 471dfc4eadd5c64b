package vec

import "math"

// Quantized is the int8 scalar-quantized representation of a stored
// vector: v[i] ≈ Scale·Codes[i]. One byte per dimension instead of four
// cuts the memory traffic of a cache lookup's candidate generation by 4x,
// which is what bounds scan and graph-traversal speed at production entry
// counts — the same asymmetric scalar-quantization scheme FAISS calls
// SQ8. Quantization is per-vector (each vector gets its own scale), so
// outliers in one entry never degrade another's resolution.
//
// Quantized distances are approximations and are used only to RANK
// candidates; tolerance τ admission must re-rank the survivors with the
// exact float32 kernel, keeping cache semantics bit-identical to the
// flat scan.
type Quantized struct {
	// Codes are the per-dimension int8 codes, in [-127, 127].
	Codes []int8
	// Scale is the dequantization factor: v[i] ≈ Scale·Codes[i].
	Scale float32
	// Norm is the Euclidean norm of the dequantized vector,
	// precomputed so the asymmetric L2 and cosine kernels need only a
	// dot product at query time.
	Norm float32
}

// Quantize encodes v with symmetric max-abs scaling: scale = max|v_i|/127.
// The zero vector quantizes to all-zero codes with Scale 0.
func Quantize(v Vector) Quantized {
	var maxAbs float32
	for _, x := range v {
		if a := float32(math.Abs(float64(x))); a > maxAbs {
			maxAbs = a
		}
	}
	q := Quantized{Codes: make([]int8, len(v))}
	if maxAbs == 0 {
		return q
	}
	q.Scale = maxAbs / 127
	inv := 1 / q.Scale
	var sumSq int64
	for i, x := range v {
		c := int32(math.RoundToEven(float64(x * inv)))
		if c > 127 {
			c = 127
		} else if c < -127 {
			c = -127
		}
		q.Codes[i] = int8(c)
		sumSq += int64(c) * int64(c)
	}
	q.Norm = q.Scale * float32(math.Sqrt(float64(sumSq)))
	return q
}

// Dequantize reconstructs the approximate float32 vector (tests and
// diagnostics; the hot kernels never materialize it).
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

// Query returns the wrapped query vector.
func (p *PreparedQuery) Query() Vector { return p.q }

// Dist returns the approximate distance between the prepared query and a
// quantized stored vector, under the same smaller-is-closer convention as
// the exact kernels. Only the stored side is quantized (asymmetric): the
// query keeps full precision, so the error is bounded by the stored
// vector's reconstruction error alone.
func (p *PreparedQuery) Dist(s *Quantized) float32 {
	dot := s.Scale * DotF32I8(p.q, s.Codes)
	switch p.metric {
	case L2Distance:
		// ‖q−v̂‖² = ‖q‖² − 2⟨q,v̂⟩ + ‖v̂‖², clamped against float
		// cancellation for near-identical vectors.
		d := p.sq - 2*dot + s.Norm*s.Norm
		if d < 0 {
			d = 0
		}
		return float32(math.Sqrt(float64(d)))
	case CosineDistance:
		if p.norm == 0 || s.Norm == 0 {
			return 1
		}
		sim := dot / (p.norm * s.Norm)
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
