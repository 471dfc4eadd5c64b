// Package vamana implements the Vamana proximity graph of DiskANN
// (Jayaram Subramanya et al., NeurIPS 2019) — the reproduction's stand-in
// for the DiskANN deployment the paper uses for the large-scale TripClick
// experiment (§4.5.3). DiskANN stores the graph on SSD and pays one disk
// read per expanded node during beam search; the paper points out (§4.3.4)
// that such disk-resident indexes make retrieval slower and caching
// proportionally more valuable. This implementation builds the Vamana
// graph in memory and *simulates* the SSD: every node expansion counts as
// one disk read: beamSearch's visited list is the I/O a search pays.
package vamana

import (
	"container/heap"
	"fmt"
	"sort"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// Graph parameters, DiskANN's R, L and α: the maximum out-degree, the
// beam width of construction and search, and RobustPrune's distance
// slack (≥ 1) in the second build pass.
const (
	maxDegree  = 32
	beamWidth  = 64
	pruneAlpha = 1.2
)

// Index is a built Vamana graph. Build it with Build; Search is safe for
// concurrent use afterwards.
type Index struct {
	dim     int
	dist    vec.DistanceFunc
	vectors []vec.Vector
	adj     [][]int
	medoid  int
}

var (
	_ vectordb.DB           = (*Index)(nil)
	_ vectordb.VectorSource = (*Index)(nil)
)

// Build constructs a Vamana graph over the given vectors: start from a
// random R-regular graph, then for each point run a beam search from the
// medoid and RobustPrune the visited set into the point's out-edges,
// inserting pruned back-edges as DiskANN does. seed drives the random
// initial graph.
func Build(vectors []vec.Vector, metric vec.Metric, seed uint64) (*Index, error) {
	if len(vectors) == 0 {
		return nil, vectordb.ErrEmptyIndex
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("vamana: vector %d has dim %d, expected %d: %w",
				i, len(v), dim, vec.ErrDimensionMismatch)
		}
	}
	ix := &Index{
		dim:     dim,
		dist:    metric.Func(),
		vectors: vectors,
		adj:     make([][]int, len(vectors)),
	}
	ix.medoid = ix.findMedoid()

	rng := vec.NewRand(seed)
	n := len(vectors)
	for i := range ix.adj {
		// Random initial out-edges (skipping self).
		degree := maxDegree
		if degree > n-1 {
			degree = n - 1
		}
		seen := map[int]struct{}{i: {}}
		for len(ix.adj[i]) < degree {
			j := int(rng.Uint64() % uint64(n))
			if _, dup := seen[j]; dup {
				continue
			}
			seen[j] = struct{}{}
			ix.adj[i] = append(ix.adj[i], j)
		}
	}

	// Two passes as in the DiskANN paper: the second pass with the full
	// alpha slack repairs edges broken by early inserts.
	for pass := 0; pass < 2; pass++ {
		alpha := float32(1)
		if pass == 1 {
			alpha = pruneAlpha
		}
		for i := 0; i < n; i++ {
			visited, _ := ix.beamSearch(vectors[i], beamWidth)
			ix.adj[i] = ix.robustPrune(i, visited, alpha)
			for _, j := range ix.adj[i] {
				ix.addEdge(j, i, alpha)
			}
		}
	}
	return ix, nil
}

// findMedoid returns the index of the vector closest to the dataset
// centroid; beam searches start here.
func (ix *Index) findMedoid() int {
	centroid := make(vec.Vector, ix.dim)
	for _, v := range ix.vectors {
		vec.AXPY(centroid, 1, v)
	}
	vec.Scale(centroid, 1/float32(len(ix.vectors)))
	best, bestDist := 0, ix.dist(centroid, ix.vectors[0])
	for i := 1; i < len(ix.vectors); i++ {
		if d := ix.dist(centroid, ix.vectors[i]); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// addEdge inserts edge from->to, pruning if the degree bound is exceeded.
func (ix *Index) addEdge(from, to int, alpha float32) {
	for _, e := range ix.adj[from] {
		if e == to {
			return
		}
	}
	ix.adj[from] = append(ix.adj[from], to)
	if len(ix.adj[from]) > maxDegree {
		cands := make([]vec.Scored, len(ix.adj[from]))
		for i, e := range ix.adj[from] {
			cands[i] = vec.Scored{ID: e, Dist: ix.dist(ix.vectors[from], ix.vectors[e])}
		}
		ix.adj[from] = ix.robustPrune(from, cands, alpha)
	}
}

// robustPrune selects up to R out-edges for node p from the candidate set:
// repeatedly take the closest remaining candidate c, then drop every
// candidate c' with alpha·d(c, c') ≤ d(p, c'), which guarantees directional
// diversity of the retained edges.
func (ix *Index) robustPrune(p int, candidates []vec.Scored, alpha float32) []int {
	// Deduplicate and drop self.
	seen := make(map[int]struct{}, len(candidates))
	pool := make([]vec.Scored, 0, len(candidates))
	for _, c := range candidates {
		if c.ID == p {
			continue
		}
		if _, dup := seen[c.ID]; dup {
			continue
		}
		seen[c.ID] = struct{}{}
		pool = append(pool, vec.Scored{ID: c.ID, Dist: ix.dist(ix.vectors[p], ix.vectors[c.ID])})
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].Dist != pool[j].Dist {
			return pool[i].Dist < pool[j].Dist
		}
		return pool[i].ID < pool[j].ID
	})

	var out []int
	removed := make([]bool, len(pool))
	for i := 0; i < len(pool) && len(out) < maxDegree; i++ {
		if removed[i] {
			continue
		}
		c := pool[i]
		out = append(out, c.ID)
		for j := i + 1; j < len(pool); j++ {
			if removed[j] {
				continue
			}
			if alpha*ix.dist(ix.vectors[c.ID], ix.vectors[pool[j].ID]) <= pool[j].Dist {
				removed[j] = true
			}
		}
	}
	return out
}

// beamSearch runs the greedy beam search from the medoid, returning all
// visited (expanded) nodes scored by distance, sorted ascending. Each
// visited node is one simulated SSD read of its adjacency list.
func (ix *Index) beamSearch(q vec.Vector, beam int) ([]vec.Scored, []vec.Scored) {
	start := vec.Scored{ID: ix.medoid, Dist: ix.dist(q, ix.vectors[ix.medoid])}
	frontier := &minHeap{start}
	inFrontier := map[int]struct{}{ix.medoid: {}}
	expanded := map[int]struct{}{}
	var visited []vec.Scored
	best := &boundedMax{cap: beam}
	best.push(start)

	for frontier.Len() > 0 {
		c := heap.Pop(frontier).(vec.Scored)
		if _, done := expanded[c.ID]; done {
			continue
		}
		if best.full() && c.Dist > best.worst() {
			break
		}
		expanded[c.ID] = struct{}{}
		visited = append(visited, c)
		for _, n := range ix.adj[c.ID] {
			if _, done := expanded[n]; done {
				continue
			}
			if _, queued := inFrontier[n]; queued {
				continue
			}
			d := ix.dist(q, ix.vectors[n])
			if best.full() && d > best.worst() {
				continue
			}
			inFrontier[n] = struct{}{}
			heap.Push(frontier, vec.Scored{ID: n, Dist: d})
			best.push(vec.Scored{ID: n, Dist: d})
		}
	}
	sort.Slice(visited, func(i, j int) bool {
		if visited[i].Dist != visited[j].Dist {
			return visited[i].Dist < visited[j].Dist
		}
		return visited[i].ID < visited[j].ID
	})
	return visited, best.items
}

// Search returns the approximate k nearest neighbors.
func (ix *Index) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	if k <= 0 {
		return nil, vectordb.ErrBadK
	}
	if len(q) != ix.dim {
		return nil, fmt.Errorf("vamana: query dim %d, index dim %d: %w",
			len(q), ix.dim, vec.ErrDimensionMismatch)
	}
	_, pool := ix.beamSearch(q, max(beamWidth, k))
	return vec.TopK(pool, k), nil
}

// Dim returns the indexed dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.vectors) }

// Vector returns the stored vector for an ID.
func (ix *Index) Vector(id int) (vec.Vector, error) {
	if id < 0 || id >= len(ix.vectors) {
		return nil, fmt.Errorf("vamana: id %d out of range (have %d)", id, len(ix.vectors))
	}
	return ix.vectors[id], nil
}

type minHeap []vec.Scored

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i].Dist < h[j].Dist }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(vec.Scored)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// boundedMax keeps the `cap` closest items seen.
type boundedMax struct {
	items []vec.Scored
	cap   int
}

func (b *boundedMax) full() bool { return len(b.items) >= b.cap }

func (b *boundedMax) worst() float32 {
	w := float32(0)
	for _, it := range b.items {
		if it.Dist > w {
			w = it.Dist
		}
	}
	return w
}

func (b *boundedMax) push(s vec.Scored) {
	for _, it := range b.items {
		if it.ID == s.ID {
			return
		}
	}
	if !b.full() {
		b.items = append(b.items, s)
		return
	}
	worstIdx, worst := -1, float32(-1)
	for i, it := range b.items {
		if it.Dist > worst {
			worstIdx, worst = i, it.Dist
		}
	}
	if s.Dist < worst {
		b.items[worstIdx] = s
	}
}
