// Package hnsw implements a Hierarchical Navigable Small World graph index
// (Malkov & Yashunin, TPAMI 2018) — the reproduction's stand-in for
// FAISS-HNSW, which the paper uses to serve the 21M-passage wiki_dpr
// corpus for the MMLU benchmark (§4.2.1).
//
// The index is a multi-layer proximity graph: each vector is assigned a
// maximum layer drawn from a geometric distribution; search descends
// greedily from the sparse top layers to layer 0, where a best-first beam
// of width ef explores the dense base graph.
//
// The graph is built once: Add appends vectors and links them in, and
// nothing is ever removed. Add must not run concurrently with anything;
// Search is safe for concurrent use once the build is done.
package hnsw

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// Graph parameters: m is the out-degree target of upper layers (layer 0
// allows 2m), efConstruction the beam width of an insert, and efSearch
// Search's beam width (SearchEf takes another).
const (
	m              = 16
	efConstruction = 200
	efSearch       = 64
)

// Index is the HNSW graph. It implements vectordb.DB and
// vectordb.VectorSource.
type Index struct {
	dim  int
	dist vec.DistanceFunc
	rng  interface{ Float64() float64 }
	mult float64 // level multiplier 1/ln(m)

	vectors []vec.Vector
	levels  []int // max layer per node

	// Layer-0 adjacency is a dense slice (every node lives there; the
	// beam spends almost all its time on it); upper layers are sparse
	// maps (a 1/m^l fraction of nodes).
	base  [][]int         // base[node] = neighbor ids
	upper []map[int][]int // upper[l-1][node] = neighbor ids at layer l

	entry    int // entry point node, -1 while the index is empty
	maxLevel int

	scratch sync.Pool // *searchScratch
}

var (
	_ vectordb.DB           = (*Index)(nil)
	_ vectordb.VectorSource = (*Index)(nil)
)

// New creates an empty HNSW index; seed drives the layer assignment.
func New(dim int, metric vec.Metric, seed uint64) (*Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("hnsw: dimension must be positive, got %d", dim)
	}
	return &Index{
		dim:   dim,
		dist:  metric.Func(),
		rng:   vec.NewRand(seed),
		mult:  1 / math.Log(m),
		entry: -1,
	}, nil
}

// Dim returns the indexed dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.vectors) }

// Vector returns the stored vector for an ID.
func (ix *Index) Vector(id int) (vec.Vector, error) {
	if id < 0 || id >= len(ix.vectors) {
		return nil, fmt.Errorf("hnsw: id %d out of range (have %d)", id, len(ix.vectors))
	}
	return ix.vectors[id], nil
}

// Add inserts vectors sequentially. Not safe to call concurrently with
// Search.
func (ix *Index) Add(vectors ...vec.Vector) error {
	for i, v := range vectors {
		if len(v) != ix.dim {
			return fmt.Errorf("hnsw: vector %d has dim %d, index dim %d: %w",
				i, len(v), ix.dim, vec.ErrDimensionMismatch)
		}
	}
	for _, v := range vectors {
		ix.insert(v)
	}
	return nil
}

func (ix *Index) randomLevel() int {
	return int(-math.Log(1-ix.rng.Float64()) * ix.mult)
}

func (ix *Index) neighbors(node, layer int) []int {
	if layer == 0 {
		if node >= len(ix.base) {
			return nil
		}
		return ix.base[node]
	}
	if layer-1 >= len(ix.upper) {
		return nil
	}
	return ix.upper[layer-1][node]
}

func (ix *Index) setNeighbors(node, layer int, ns []int) {
	if layer == 0 {
		for len(ix.base) <= node {
			ix.base = append(ix.base, nil)
		}
		ix.base[node] = ns
		return
	}
	for len(ix.upper) < layer {
		ix.upper = append(ix.upper, make(map[int][]int))
	}
	ix.upper[layer-1][node] = ns
}

func (ix *Index) insert(v vec.Vector) {
	level := ix.randomLevel()
	id := len(ix.vectors)
	ix.vectors = append(ix.vectors, v)
	ix.levels = append(ix.levels, level)

	if ix.entry < 0 {
		for l := 0; l <= level; l++ {
			ix.setNeighbors(id, l, nil)
		}
		ix.entry = id
		ix.maxLevel = level
		return
	}

	scr := ix.getScratch()
	ep := ix.entry
	// Greedy descent through layers above the node's level.
	for l := ix.maxLevel; l > level; l-- {
		ep = ix.greedyClosest(v, ep, l)
	}
	// Beam insert from min(level, maxLevel) down to 0.
	for l := min(level, ix.maxLevel); l >= 0; l-- {
		candidates := ix.searchLayer(v, scr, ep, efConstruction, l)
		maxDegree := m
		if l == 0 {
			maxDegree = 2 * m
		}
		selected := vec.TopK(candidates, m)
		ns := vec.IDs(selected)
		ix.setNeighbors(id, l, ns)
		for _, n := range ns {
			ix.linkBack(n, id, l, maxDegree)
		}
		if len(candidates) > 0 {
			ep = candidates[0].ID
		}
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = id
	}
	ix.putScratch(scr)
}

// linkBack adds id to node's neighbor list at the layer, pruning to the
// mMax closest if the list overflows.
func (ix *Index) linkBack(node, id, layer, mMax int) {
	ns := append(ix.neighbors(node, layer), id)
	if len(ns) > mMax {
		scored := make([]vec.Scored, len(ns))
		base := ix.vectors[node]
		for i, n := range ns {
			scored[i] = vec.Scored{ID: n, Dist: ix.dist(base, ix.vectors[n])}
		}
		ns = vec.IDs(vec.TopK(scored, mMax))
	}
	ix.setNeighbors(node, layer, ns)
}

// greedyClosest walks layer l from ep to the locally closest node to q.
func (ix *Index) greedyClosest(q vec.Vector, ep, layer int) int {
	cur := ep
	curDist := ix.dist(q, ix.vectors[cur])
	for {
		improved := false
		for _, n := range ix.neighbors(cur, layer) {
			if d := ix.dist(q, ix.vectors[n]); d < curDist {
				cur, curDist = n, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchScratch is the reusable per-search state: an epoch-stamped
// visited set (reset is a counter bump, not a clear) and the two beam
// heaps plus an output slice, all retaining their backing arrays across
// searches so steady-state lookups allocate nothing.
type searchScratch struct {
	visited []uint32
	epoch   uint32
	cands   minHeap
	results maxHeap
	out     []vec.Scored
}

func (s *searchScratch) begin(n int) {
	if len(s.visited) < n {
		grown := make([]uint32, n)
		copy(grown, s.visited)
		s.visited = grown
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, clear once
		clear(s.visited)
		s.epoch = 1
	}
	s.cands = s.cands[:0]
	s.results = s.results[:0]
	s.out = s.out[:0]
}

func (s *searchScratch) seen(id int) bool { return s.visited[id] == s.epoch }
func (s *searchScratch) mark(id int)      { s.visited[id] = s.epoch }

func (ix *Index) getScratch() *searchScratch {
	if s, ok := ix.scratch.Get().(*searchScratch); ok {
		return s
	}
	return &searchScratch{}
}

func (ix *Index) putScratch(s *searchScratch) { ix.scratch.Put(s) }

// searchLayer is the best-first beam search of HNSW (Algorithm 2 of the
// paper's HNSW reference): it maintains the ef closest found so far and
// expands the closest unexplored candidate until no candidate can improve
// the result set. Returns found nodes sorted ascending by distance; the
// slice aliases scratch and is valid until the scratch's next use.
func (ix *Index) searchLayer(q vec.Vector, s *searchScratch, ep, ef, layer int) []vec.Scored {
	s.begin(len(ix.vectors))
	s.mark(ep)
	epDist := ix.dist(q, ix.vectors[ep])

	// candidates: min-heap by distance; results: max-heap capped at ef.
	s.cands.push(vec.Scored{ID: ep, Dist: epDist})
	s.results.push(vec.Scored{ID: ep, Dist: epDist})

	for len(s.cands) > 0 {
		c := s.cands.pop()
		if len(s.results) >= ef && c.Dist > s.results[0].Dist {
			break
		}
		for _, n := range ix.neighbors(c.ID, layer) {
			if s.seen(n) {
				continue
			}
			s.mark(n)
			d := ix.dist(q, ix.vectors[n])
			if len(s.results) < ef || d < s.results[0].Dist {
				s.cands.push(vec.Scored{ID: n, Dist: d})
				s.results.push(vec.Scored{ID: n, Dist: d})
				if len(s.results) > ef {
					s.results.pop()
				}
			}
		}
	}
	s.out = append(s.out, s.results...)
	slices.SortFunc(s.out, func(a, b vec.Scored) int {
		if a.Dist != b.Dist {
			if a.Dist < b.Dist {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	})
	return s.out
}

// Search returns the approximate k nearest neighbors using the efSearch
// beam width.
func (ix *Index) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	return ix.SearchEf(q, k, efSearch)
}

// SearchEf searches with an explicit beam width ef ≥ k for recall tuning.
func (ix *Index) SearchEf(q vec.Vector, k, ef int) ([]vec.Scored, error) {
	return ix.SearchInto(nil, q, k, ef)
}

// SearchInto is SearchEf appending results into dst (grown as needed) —
// the allocation-free entry point for hot-path callers that own a result
// buffer.
//
//proximity:hotpath
func (ix *Index) SearchInto(dst []vec.Scored, q vec.Vector, k, ef int) ([]vec.Scored, error) {
	if k <= 0 {
		return nil, vectordb.ErrBadK
	}
	if ix.Len() == 0 {
		return nil, vectordb.ErrEmptyIndex
	}
	if len(q) != ix.dim {
		//proximity:allow hotpathalloc cold rejection path, never taken by a well-formed caller
		return nil, fmt.Errorf("hnsw: query dim %d, index dim %d: %w",
			len(q), ix.dim, vec.ErrDimensionMismatch)
	}
	if ef < k {
		ef = k
	}
	scr := ix.getScratch()
	ep := ix.entry
	for l := ix.maxLevel; l > 0; l-- {
		ep = ix.greedyClosest(q, ep, l)
	}
	found := ix.searchLayer(q, scr, ep, ef, 0)
	if len(found) > k {
		found = found[:k]
	}
	dst = append(dst, found...)
	ix.putScratch(scr)
	return dst, nil
}

// minHeap and maxHeap are binary heaps of scored nodes with typed
// push/pop: container/heap routes every element through interface{},
// which boxes a 16-byte vec.Scored onto the GC heap per push — hundreds
// of allocations per beam search. The hand-rolled sifts keep the search
// scratch genuinely allocation-free in steady state.
type minHeap []vec.Scored

func (h *minHeap) push(x vec.Scored) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].Dist <= s[i].Dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *minHeap) pop() vec.Scored {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].Dist < s[l].Dist {
			m = r
		}
		if s[i].Dist <= s[m].Dist {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

type maxHeap []vec.Scored

func (h *maxHeap) push(x vec.Scored) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].Dist >= s[i].Dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *maxHeap) pop() vec.Scored {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].Dist > s[l].Dist {
			m = r
		}
		if s[i].Dist >= s[m].Dist {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
