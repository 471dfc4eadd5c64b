package vec

import "fmt"

// Metric identifies a distance function of the vector-database stand-ins
// (vectordb, hnsw, vamana), normalized to "smaller is closer" so top-k
// selection is metric-agnostic. Caches compare keys by L2 only; in front
// of a cosine database they take unit-normalized embeddings and
// τ = √(2·τ_cos), since 1 − cos(a, b) = ‖a − b‖²/2 for unit vectors.
type Metric int

const (
	// L2Distance is the Euclidean distance, the metric used in the
	// paper's evaluation (MedCPT and DPR embeddings are compared with
	// L2 in FAISS).
	L2Distance Metric = iota + 1
	// CosineDistance is 1 - cosine similarity.
	CosineDistance
	// InnerProduct is the negated dot product.
	InnerProduct
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case L2Distance:
		return "l2"
	case CosineDistance:
		return "cosine"
	case InnerProduct:
		return "ip"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// DistanceFunc is a distance kernel under the smaller-is-closer convention.
type DistanceFunc func(a, b Vector) float32

// Func returns the kernel implementing the metric.
func (m Metric) Func() DistanceFunc {
	switch m {
	case L2Distance:
		return L2
	case CosineDistance:
		return Cosine
	case InnerProduct:
		return NegDot
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", int(m)))
	}
}
