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
	"math"
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
	// errNonFiniteQuery refuses a query holding a NaN or ±Inf
	// component: no distance to it has a place in the (distance, ID)
	// order, so no top-k of it is defined.
	errNonFiniteQuery = errors.New("vectordb: query has a NaN or ±Inf component")
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
	heads []rowHead      // the rows an L2 scan retains, at most 2·keepPerK·k
}

// rowHead is a row an L2 scan retained, with its head
// (vec.L2SquaredHead): 8 bytes, so 2·keepPerK·k of them take 4 KB at
// k = 4.
type rowHead struct {
	ID   int32
	Head float32
}

// keepPerK is how many rows per requested neighbour an L2 scan's first
// pass retains: enough that on clustered rows the largest head kept
// usually lies beyond the bound the nearest ones prove, so the second
// walk is rare (about 9 % of the repository benchmark's misses take it;
// internal/core's TestDimensionsTouched logs it on smaller corpora), and
// few enough that the retained rows fit in 4 KB at k = 4.
const keepPerK = 64

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
// order. It refuses every vector if one has a NaN or ±Inf component, as
// the caches refuse such keys: no distance to it ranks, and a NaN in a
// row's head would leave Search's first pass no order to cut by. The
// index stores the given slices directly; callers must not mutate them
// afterwards.
func (f *FlatIndex) Add(vectors ...vec.Vector) error {
	for i, v := range vectors {
		if len(v) != f.dim {
			return fmt.Errorf("vectordb: vector %d has dim %d, index dim %d: %w",
				i, len(v), f.dim, vec.ErrDimensionMismatch)
		}
		if !vec.Finite(v) {
			return fmt.Errorf("vectordb: vector %d has a NaN or ±Inf component", i)
		}
	}
	f.vectors = append(f.vectors, vectors...)
	return nil
}

// Search returns the k exact nearest neighbors, closest first. It
// refuses a query holding a NaN or ±Inf component.
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
	if !vec.Finite(q) {
		return nil, errNonFiniteQuery
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
// distance once it provably exceeds the k-th best known. The rows are
// scattered allocations, so a walk over them waits on memory, and the
// scan walks the corpus once: a bound learnt only from what has been
// pushed would stay loose until the walk happened upon q's
// neighbourhood, so the walk ranks rows on their heads
// (vec.L2SquaredHead, one cache line each) and finishes nothing.
//
// Pass 1 retains every row whose head is below a running cutoff, as a
// rowHead in s.heads. Whenever 2·keep rows are retained, keepSmallest
// cuts them to the keep smallest heads and lowers the cutoff to the
// largest head kept, so every row the pass drops has a head at or above
// the final cutoff. The retained rows are then finished in (head, ID)
// order under the k-th best so far, and the scan stops at the first
// head above its bound: that row and every later one would be abandoned
// at vec.L2Bounded's first check. A dropped row would be skipped on its
// head for the same reason unless the cutoff is at or below the final
// bound; only then — crowded geometry, or fewer than k finite distances
// among the retained rows — does a second walk visit the rows not
// retained, skip each whose head exceeds the bound, and hand the rest
// to vec.L2Bounded.
//
// Exactness does not depend on which rows are retained: every row is
// either proved beyond the k-th best distance or pushed with its exact
// distance, and the (distance, ID) order makes the result independent
// of push order. Add refuses rows and Search refuses queries that are
// not finite, so no head or distance is NaN. Below HeadLen dimensions,
// or when every row is wanted, there is no head to rank on or no row to
// skip, and past int32 row IDs no rowHead to hold one; the scan is then
// one bounded loop in ID order.
//
//proximity:hotpath
func (f *FlatIndex) scanL2(q vec.Vector, k int, s *flatScratch) {
	n := len(f.vectors)
	if f.dim < vec.HeadLen || k >= n || n > math.MaxInt32 {
		f.scanBounded(q, s)
		return
	}
	keep := n // every row, when keepPerK·k would be more
	if k <= n/keepPerK {
		keep = keepPerK * k
	}
	heads := s.heads[:0]
	cutoff := float32(math.Inf(1))
	for id, v := range f.vectors {
		h := vec.L2SquaredHead(q, v)
		if h >= cutoff {
			continue
		}
		heads = append(heads, rowHead{ID: int32(id), Head: h})
		if len(heads) == 2*keep {
			cutoff = keepSmallest(heads, keep)
			heads = heads[:keep]
		}
	}
	if len(heads) > keep {
		cutoff = keepSmallest(heads, keep)
		heads = heads[:keep]
	}
	s.heads = heads

	// Nearest heads first, so the bound tightens as early as it can.
	slices.SortFunc(heads, func(a, b rowHead) int {
		return cmp.Or(cmp.Compare(a.Head, b.Head), cmp.Compare(a.ID, b.ID))
	})
	maxDist := s.top.Worst()
	headBound := vec.SquaredBound(maxDist)
	for _, r := range heads {
		if r.Head > headBound {
			break
		}
		if d, ok := vec.L2Bounded(q, f.vectors[r.ID], maxDist); ok {
			s.top.Push(int(r.ID), d)
			maxDist = s.top.Worst()
			headBound = vec.SquaredBound(maxDist)
		}
	}
	if len(heads) == n || cutoff > headBound {
		return
	}

	slices.SortFunc(heads, func(a, b rowHead) int { return cmp.Compare(a.ID, b.ID) })
	next := 0 // the first retained row not yet passed, in ID order
	for id, v := range f.vectors {
		if next < len(heads) && int(heads[next].ID) == id {
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

// scanBounded fills s.top in one walk in ID order, abandoning each
// distance once it provably exceeds the k-th best known.
func (f *FlatIndex) scanBounded(q vec.Vector, s *flatScratch) {
	for id, v := range f.vectors {
		if d, ok := vec.L2Bounded(q, v, s.top.Worst()); ok {
			s.top.Push(id, d)
		}
	}
}

// keepSmallest reorders r so that r[:m] holds m of its smallest heads
// and returns the largest of them; no head in r[m:] is smaller. It is
// Hoare's selection, linear on average, and needs 0 < m ≤ len(r) and
// no NaN head. Sorting r by (head, ID) at every cut instead made
// BenchmarkIndexSearch/flat-20k twice as slow (2-vCPU amd64, go1.24).
func keepSmallest(r []rowHead, m int) float32 {
	lo, hi := 0, len(r)-1
	for lo < hi {
		pivot := r[int(uint(lo+hi)>>1)].Head
		i, j := lo, hi
		for i <= j {
			for r[i].Head < pivot {
				i++
			}
			for pivot < r[j].Head {
				j--
			}
			if i <= j {
				r[i], r[j] = r[j], r[i]
				i++
				j--
			}
		}
		// r[lo:j+1] ≤ pivot ≤ r[i:hi+1], and r[j+1:i] = pivot.
		if j < m-1 {
			lo = i
		}
		if m-1 < i {
			hi = j
		}
	}
	return r[m-1].Head
}

// Dim returns the indexed dimensionality.
func (f *FlatIndex) Dim() int { return f.dim }

// Len returns the number of indexed vectors.
func (f *FlatIndex) Len() int { return len(f.vectors) }

// Vector returns the stored vector for a document ID.
func (f *FlatIndex) Vector(id int) (vec.Vector, error) {
	if id < 0 || id >= len(f.vectors) {
		return nil, fmt.Errorf("vectordb: id %d out of range (have %d)", id, len(f.vectors))
	}
	return f.vectors[id], nil
}
