// Package vectordb defines the vector-database substrate of the RAG
// pipeline: the search interface the Proximity cache fronts, an exact
// brute-force index (the FAISS-Flat stand-in used for MedRAG), a
// production-scale latency model, and call-counting instrumentation.
// Approximate graph indexes live in the sibling packages hnsw (FAISS-HNSW
// stand-in, MMLU) and vamana (DiskANN stand-in, TripClick).
package vectordb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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

// flatScratch is one search's working memory, O(k) and pooled.
type flatScratch struct {
	top   vec.TopKBuffer // the result selection
	seed  vec.TopKBuffer // the seedsPerK·k smallest heads (L2 seeding)
	seeds []vec.Scored   // seed's contents, read back and then put in ID order
}

// seedsPerK is how many rows per requested neighbour the seeding pass of
// an L2 search finishes to prove its bound.
const seedsPerK = 4

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
	s := f.getScratch()
	out := f.search(q, k, s)
	f.scratch.Put(s)
	return out, nil
}

// getScratch takes a scratch from the pool, or makes the first one.
func (f *FlatIndex) getScratch() *flatScratch {
	if s, ok := f.scratch.Get().(*flatScratch); ok {
		return s
	}
	return &flatScratch{}
}

// search returns q's k nearest vectors, closest first; q and k are
// already validated.
func (f *FlatIndex) search(q vec.Vector, k int, s *flatScratch) []vec.Scored {
	s.top.Reset(k)
	if f.metric == vec.L2Distance {
		f.scanL2(q, k, s)
	} else {
		s.top.PushDistances(q, f.vectors, f.dist)
	}
	return s.top.Result()
}

// scanL2 fills s.top with q's k nearest vectors, abandoning each
// distance once it provably exceeds the k-th best known. A scan that
// learns that bound only from what it has pushed finishes almost every
// vector until it happens upon q's neighbourhood, so the bound is seeded
// first, and both passes read one cache line per row — the scan waits on
// memory, not arithmetic. Pass 1 keeps the seedsPerK·k rows with the
// smallest heads (vec.L2SquaredHead) and finishes only those, so s.top
// holds the k nearest seeds and its k-th distance bounds pass 2 from its
// first row. Pass 2 visits every other row, skips it when its head alone
// exceeds the bound — exactly when vec.L2Bounded would abandon it at its
// first check — and hands the rest to vec.L2Bounded. The seeds are a
// guess and exactness does not depend on them: every row is offered
// once, under the k-th best known, and each one kept is pushed with its
// exact distance. Below HeadLen dimensions, or when every row is wanted,
// there is no head to seed on and no row to skip, and the scan is one
// bounded loop.
//
//proximity:hotpath
func (f *FlatIndex) scanL2(q vec.Vector, k int, s *flatScratch) {
	if f.dim < vec.HeadLen || k >= len(f.vectors) {
		for id, v := range f.vectors {
			if d, ok := vec.L2Bounded(q, v, s.top.Worst()); ok {
				s.top.Push(id, d)
			}
		}
		return
	}
	s.seed.Reset(seedsPerK * k)
	for id, v := range f.vectors {
		s.seed.Push(id, vec.L2SquaredHead(q, v))
	}
	// Nearest heads first, so the bound tightens as early as it can.
	s.seeds = s.seed.AppendResult(s.seeds[:0])
	for _, seed := range s.seeds {
		if d, ok := vec.L2Bounded(q, f.vectors[seed.ID], s.top.Worst()); ok {
			s.top.Push(seed.ID, d)
		}
	}
	slices.SortFunc(s.seeds, func(a, b vec.Scored) int { return cmp.Compare(a.ID, b.ID) })

	maxDist := s.top.Worst()
	headBound := vec.SquaredBound(maxDist)
	next := 0 // the first seed not yet passed, in ID order
	for id, v := range f.vectors {
		if next < len(s.seeds) && s.seeds[next].ID == id {
			next++
			continue
		}
		if vec.L2SquaredHead(q, v) > headBound {
			continue
		}
		if d, ok := vec.L2Bounded(q, v, maxDist); ok {
			s.top.Push(id, d)
			maxDist = s.top.Worst()
			headBound = vec.SquaredBound(maxDist)
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
