// Package vectordb defines the vector-database substrate of the RAG
// pipeline: the search interface the Proximity cache fronts, an exact
// brute-force index (the FAISS-Flat stand-in used for MedRAG), a
// production-scale latency model, and call-counting instrumentation.
// Approximate graph indexes live in the sibling packages hnsw (FAISS-HNSW
// stand-in, MMLU) and vamana (DiskANN stand-in, TripClick).
package vectordb

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"proximity/internal/vec"
)

// Errors shared across index implementations.
var (
	// ErrEmptyIndex is returned when searching an index with no vectors.
	ErrEmptyIndex = errors.New("vectordb: index is empty")
	// ErrBadK is returned when k is not positive.
	ErrBadK = errors.New("vectordb: k must be positive")
)

// DB is the search interface the paper assumes of the underlying vector
// database: a retrieveDocumentIndices function taking a query embedding
// and returning a sorted list of close document indices (§3). Search
// returns distances along with the indices because the cache re-ranking
// step and the recall metric both need them. Implementations must be safe
// for concurrent Search calls once built.
type DB interface {
	// Search returns the k nearest documents, closest first.
	Search(q vec.Vector, k int) ([]vec.Scored, error)
	// Dim returns the indexed dimensionality.
	Dim() int
	// Len returns the number of indexed vectors.
	Len() int
}

// VectorSource exposes stored vectors by document ID; cache re-ranking
// (§3.3.4) scores cached neighbor indices against the incoming query
// through this interface.
type VectorSource interface {
	Vector(id int) (vec.Vector, error)
}

// RetrieveDocumentIndices adapts any DB to the paper's index-only call
// signature (Algorithm 1, line 6).
func RetrieveDocumentIndices(db DB, q vec.Vector, k int) ([]int, error) {
	res, err := db.Search(q, k)
	if err != nil {
		return nil, err
	}
	return vec.IDs(res), nil
}

// FlatIndex is an exact nearest-neighbor index over an in-memory vector
// set — the stand-in for FAISS-Flat, which the paper uses to serve the
// 23.9M-passage PubMed corpus for MedRAG (§4.2.1). Search cost is
// O(n·d).
type FlatIndex struct {
	vectors []vec.Vector
	dim     int
	metric  vec.Metric
	dist    vec.DistanceFunc
	scratch sync.Pool // *flatScratch, reused across Search calls
}

// flatScratch is one Search call's working memory, O(k) and pooled.
type flatScratch struct {
	top   vec.TopKBuffer // the result selection
	seed  vec.TopKBuffer // the k smallest prefix distances (L2 seeding)
	seeds []vec.Scored   // seed's contents, read back
}

// seedPrefix is how many leading dimensions the seeding pass of an L2
// Search ranks the corpus on.
const seedPrefix = 32

// offer scores v against q and pushes it into b under id — the step of
// every top-k scan in this package. Under L2 the early-abandoning kernel
// runs against b's current k-th distance: a vector proved strictly
// farther would have been dropped by Push anyway, and one exactly as far
// still reaches Push, which settles the (distance, ID) tie. Cosine and
// inner product have no monotone partial sum and are always finished.
func offer(b *vec.TopKBuffer, metric vec.Metric, dist vec.DistanceFunc, id int, q, v vec.Vector) {
	if metric != vec.L2Distance {
		b.Push(id, dist(q, v))
	} else if d, ok := vec.L2Bounded(q, v, b.Worst()); ok {
		b.Push(id, d)
	}
}

var (
	_ DB           = (*FlatIndex)(nil)
	_ VectorSource = (*FlatIndex)(nil)
)

// NewFlatIndex creates an empty flat index for dim-dimensional vectors
// under the given metric.
func NewFlatIndex(dim int, metric vec.Metric) (*FlatIndex, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vectordb: dimension must be positive, got %d", dim)
	}
	return &FlatIndex{dim: dim, metric: metric, dist: metric.Func()}, nil
}

// NewFlatFromVectors builds a flat index over an existing vector set
// (e.g. a corpus's embeddings). The index references the given slices;
// callers must not mutate them afterwards.
func NewFlatFromVectors(vectors []vec.Vector, metric vec.Metric) (*FlatIndex, error) {
	if len(vectors) == 0 {
		return nil, ErrEmptyIndex
	}
	f, err := NewFlatIndex(len(vectors[0]), metric)
	if err != nil {
		return nil, err
	}
	if err := f.Add(vectors...); err != nil {
		return nil, err
	}
	return f, nil
}

// Add appends vectors to the index; IDs are assigned densely in insertion
// order. The index stores the given slices directly; callers must not
// mutate them afterwards.
func (f *FlatIndex) Add(vectors ...vec.Vector) error {
	for i, v := range vectors {
		if len(v) != f.dim {
			return fmt.Errorf("vectordb: vector %d has dim %d, index dim %d: %w",
				i, len(v), f.dim, vec.ErrDimensionMismatch)
		}
	}
	f.vectors = append(f.vectors, vectors...)
	return nil
}

// Search returns the k exact nearest neighbors, closest first.
func (f *FlatIndex) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	if len(f.vectors) == 0 {
		return nil, ErrEmptyIndex
	}
	if len(q) != f.dim {
		return nil, fmt.Errorf("vectordb: query dim %d, index dim %d: %w",
			len(q), f.dim, vec.ErrDimensionMismatch)
	}
	s, ok := f.scratch.Get().(*flatScratch)
	if !ok {
		s = &flatScratch{}
	}
	s.top.Reset(k)
	if f.metric == vec.L2Distance {
		f.scanL2(q, k, s)
	} else {
		s.top.PushDistances(q, f.vectors, f.dist)
	}
	out := s.top.Result()
	f.scratch.Put(s)
	return out, nil
}

// scanL2 fills s.top with q's k nearest vectors, abandoning each
// distance once it provably exceeds the k-th best known. A scan that
// learns that bound only from what it has pushed finishes almost every
// vector until it happens upon q's neighbourhood, so the bound is seeded
// first: a pass over the first seedPrefix dimensions keeps the k vectors
// closest on that prefix, and the largest of their full distances is a
// bound from the first vector on. The seeds are a guess — exactness does
// not depend on them: k vectors are known to lie within the seeded
// bound, so a vector strictly beyond it is not among the k nearest
// whatever the ties, and every other vector is pushed with its exact
// distance. An uninformative prefix costs seedPrefix/dim extra work.
func (f *FlatIndex) scanL2(q vec.Vector, k int, s *flatScratch) {
	maxDist := float32(math.Inf(1))
	if f.dim > seedPrefix && k < len(f.vectors) {
		s.seed.Reset(k)
		prefix := q[:seedPrefix]
		for id, v := range f.vectors {
			s.seed.Push(id, vec.L2Squared(prefix, v[:seedPrefix]))
		}
		s.seeds = s.seed.AppendResult(s.seeds[:0])
		maxDist = 0
		for _, seed := range s.seeds {
			maxDist = max(maxDist, vec.L2(q, f.vectors[seed.ID]))
		}
	}
	for id, v := range f.vectors {
		if d, ok := vec.L2Bounded(q, v, min(maxDist, s.top.Worst())); ok {
			s.top.Push(id, d)
		}
	}
}

// Dim returns the indexed dimensionality.
func (f *FlatIndex) Dim() int { return f.dim }

// Len returns the number of indexed vectors.
func (f *FlatIndex) Len() int { return len(f.vectors) }

// Metric returns the index's distance metric.
func (f *FlatIndex) Metric() vec.Metric { return f.metric }

// Vector returns the stored vector for a document ID.
func (f *FlatIndex) Vector(id int) (vec.Vector, error) {
	if id < 0 || id >= len(f.vectors) {
		return nil, fmt.Errorf("vectordb: id %d out of range (have %d)", id, len(f.vectors))
	}
	return f.vectors[id], nil
}
