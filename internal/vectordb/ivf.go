package vectordb

import (
	"fmt"
	"sort"
	"sync"

	"proximity/internal/vec"
)

// IVFIndex is an inverted-file index with a k-means coarse quantizer —
// the quantization-based ANN family (IVF/PQ, Jégou et al. 2011) the paper
// lists alongside HNSW as the standard way to serve large vector
// databases (§2.2). Vectors are assigned to their nearest centroid;
// queries scan only the NProbe closest centroid lists, trading recall for
// a fraction of the flat-scan cost.
//
// Build with BuildIVF; Search is safe for concurrent use afterwards.
type IVFIndex struct {
	dim      int
	metric   vec.Metric
	dist     vec.DistanceFunc
	nprobe   int
	centroid []vec.Vector
	lists    [][]int // centroid -> vector IDs
	vectors  []vec.Vector
	topk     sync.Pool // *vec.TopKBuffer, reused across Search calls
}

var (
	_ DB           = (*IVFIndex)(nil)
	_ VectorSource = (*IVFIndex)(nil)
)

// IVFConfig parameterizes index construction.
type IVFConfig struct {
	// NList is the number of coarse centroids (default: √n rounded,
	// at least 1).
	NList int
	// NProbe is the number of centroid lists scanned per query
	// (default: max(1, NList/8)).
	NProbe int
	// KMeansIters bounds the Lloyd iterations (default 15).
	KMeansIters int
	// Seed drives the centroid initialization.
	Seed uint64
}

func (c *IVFConfig) fillDefaults(n int) {
	if c.NList == 0 {
		c.NList = intSqrt(n)
	}
	if c.NList > n {
		c.NList = n
	}
	if c.NProbe == 0 {
		c.NProbe = c.NList / 8
		if c.NProbe < 1 {
			c.NProbe = 1
		}
	}
	if c.NProbe > c.NList {
		c.NProbe = c.NList
	}
	if c.KMeansIters == 0 {
		c.KMeansIters = 15
	}
}

// BuildIVF clusters the vectors and builds the inverted lists.
func BuildIVF(vectors []vec.Vector, metric vec.Metric, cfg IVFConfig) (*IVFIndex, error) {
	if len(vectors) == 0 {
		return nil, ErrEmptyIndex
	}
	dim := len(vectors[0])
	for i, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("vectordb: ivf vector %d has dim %d, expected %d: %w",
				i, len(v), dim, vec.ErrDimensionMismatch)
		}
	}
	cfg.fillDefaults(len(vectors))
	if cfg.NList < 1 {
		return nil, fmt.Errorf("vectordb: ivf needs ≥1 centroid, got %d", cfg.NList)
	}

	ix := &IVFIndex{
		dim:     dim,
		metric:  metric,
		dist:    metric.Func(),
		nprobe:  cfg.NProbe,
		vectors: vectors,
	}
	ix.centroid = kmeans(vectors, cfg.NList, cfg.KMeansIters, cfg.Seed, ix.dist)
	ix.lists = make([][]int, len(ix.centroid))
	for id, v := range vectors {
		ix.lists[ix.nearestCentroid(v)] = append(ix.lists[ix.nearestCentroid(v)], id)
	}
	return ix, nil
}

// nearestCentroid returns the index of the closest centroid.
func (ix *IVFIndex) nearestCentroid(v vec.Vector) int {
	best, bestDist := 0, ix.dist(v, ix.centroid[0])
	for c := 1; c < len(ix.centroid); c++ {
		if d := ix.dist(v, ix.centroid[c]); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// Search scans the NProbe closest inverted lists.
func (ix *IVFIndex) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	return ix.SearchProbe(q, k, ix.nprobe)
}

// SearchProbe searches with an explicit probe count for recall tuning.
func (ix *IVFIndex) SearchProbe(q vec.Vector, k, nprobe int) ([]vec.Scored, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	if len(q) != ix.dim {
		return nil, fmt.Errorf("vectordb: ivf query dim %d, index dim %d: %w",
			len(q), ix.dim, vec.ErrDimensionMismatch)
	}
	b, ok := ix.topk.Get().(*vec.TopKBuffer)
	if !ok {
		b = &vec.TopKBuffer{}
	}
	b.Reset(k)
	for _, c := range ix.probeSet(q, nprobe) {
		for _, id := range ix.lists[c] {
			offer(b, ix.metric, ix.dist, id, q, ix.vectors[id])
		}
	}
	out := b.Result()
	ix.topk.Put(b)
	return out, nil
}

// offer scores v against q and pushes it into b under id, the inner
// step of the IVF scan. Under L2 the early-abandoning kernel runs against b's
// current k-th distance: a vector proved strictly farther would have
// been dropped by Push anyway, and one exactly as far still reaches
// Push, which settles the (distance, ID) tie. Cosine and inner product
// have no monotone partial sum and are always finished.
func offer(b *vec.TopKBuffer, metric vec.Metric, dist vec.DistanceFunc, id int, q, v vec.Vector) {
	if metric != vec.L2Distance {
		b.Push(id, dist(q, v))
	} else if d, ok := vec.L2Bounded(q, v, b.Worst()); ok {
		b.Push(id, d)
	}
}

// probeSet ranks the coarse centroids by distance to q and returns the
// IDs of the nprobe closest (ties broken by centroid ID), the cells
// Search scans.
func (ix *IVFIndex) probeSet(q vec.Vector, nprobe int) []int {
	if nprobe < 1 {
		nprobe = 1
	}
	if nprobe > len(ix.centroid) {
		nprobe = len(ix.centroid)
	}
	cents := make([]vec.Scored, len(ix.centroid))
	for c := range ix.centroid {
		cents[c] = vec.Scored{ID: c, Dist: ix.dist(q, ix.centroid[c])}
	}
	sort.Slice(cents, func(i, j int) bool {
		if cents[i].Dist != cents[j].Dist {
			return cents[i].Dist < cents[j].Dist
		}
		return cents[i].ID < cents[j].ID
	})
	out := make([]int, nprobe)
	for i := range out {
		out[i] = cents[i].ID
	}
	return out
}

// Dim returns the indexed dimensionality.
func (ix *IVFIndex) Dim() int { return ix.dim }

// Len returns the number of indexed vectors.
func (ix *IVFIndex) Len() int { return len(ix.vectors) }

// Metric returns the distance metric.
func (ix *IVFIndex) Metric() vec.Metric { return ix.metric }

// NList returns the number of coarse centroids.
func (ix *IVFIndex) NList() int { return len(ix.centroid) }

// NProbe returns the default probe count.
func (ix *IVFIndex) NProbe() int { return ix.nprobe }

// Vector returns the stored vector for an ID.
func (ix *IVFIndex) Vector(id int) (vec.Vector, error) {
	if id < 0 || id >= len(ix.vectors) {
		return nil, fmt.Errorf("vectordb: ivf id %d out of range (have %d)", id, len(ix.vectors))
	}
	return ix.vectors[id], nil
}

// kmeans runs Lloyd's algorithm with k-means++-style seeding (greedy
// farthest-point from a seeded start, which is deterministic).
func kmeans(vectors []vec.Vector, k, iters int, seed uint64, dist vec.DistanceFunc) []vec.Vector {
	rng := vec.NewRand(seed)
	centroids := make([]vec.Vector, 0, k)
	centroids = append(centroids, vec.Clone(vectors[rng.IntN(len(vectors))]))
	// Farthest-point initialization.
	minDist := make([]float32, len(vectors))
	for i, v := range vectors {
		minDist[i] = dist(v, centroids[0])
	}
	for len(centroids) < k {
		far, farDist := 0, float32(-1)
		for i, d := range minDist {
			if d > farDist {
				far, farDist = i, d
			}
		}
		c := vec.Clone(vectors[far])
		centroids = append(centroids, c)
		for i, v := range vectors {
			if d := dist(v, c); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	assign := make([]int, len(vectors))
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range vectors {
			best, bestDist := 0, dist(v, centroids[0])
			for c := 1; c < len(centroids); c++ {
				if d := dist(v, centroids[c]); d < bestDist {
					best, bestDist = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		// Recompute means.
		dim := len(vectors[0])
		sums := make([]vec.Vector, len(centroids))
		counts := make([]int, len(centroids))
		for c := range sums {
			sums[c] = make(vec.Vector, dim)
		}
		for i, v := range vectors {
			vec.AXPY(sums[assign[i]], 1, v)
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = vec.Scale(sums[c], 1/float32(counts[c]))
			}
			// Empty clusters keep their previous centroid.
		}
	}
	return centroids
}

// intSqrt returns round(√n), at least 1.
func intSqrt(n int) int {
	if n <= 1 {
		return 1
	}
	x := 1
	for x*x < n {
		x++
	}
	return x
}
