package tsne

import (
	"errors"
	"fmt"
	"math"

	"proximity/internal/vec"
)

// learningRate is the gradient-descent step size.
const learningRate = 200

// Config parameterizes the t-SNE optimization.
type Config struct {
	// Perplexity targets the effective neighborhood size (default 30,
	// clamped to (n-1)/3).
	Perplexity float64
	// Iterations is the gradient-descent step count (default 300).
	Iterations int
	// Seed drives the initial layout.
	Seed uint64
}

func (c *Config) fillDefaults(n int) {
	if c.Perplexity == 0 {
		c.Perplexity = 30
	}
	if maxPerp := float64(n-1) / 3; c.Perplexity > maxPerp && maxPerp > 1 {
		c.Perplexity = maxPerp
	}
	if c.Iterations == 0 {
		c.Iterations = 300
	}
}

// Embed runs exact (O(n²)) t-SNE on the given points (rows of equal
// length, typically PCA output) and returns 2-D coordinates.
func Embed(points [][]float64, cfg Config) ([][2]float64, error) {
	n := len(points)
	if n < 4 {
		return nil, errors.New("tsne: need at least 4 points")
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("tsne: row %d has dim %d, expected %d", i, len(p), d)
		}
	}
	cfg.fillDefaults(n)

	// Pairwise squared distances in the input space.
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := 0.0
			for k := 0; k < d; k++ {
				diff := points[i][k] - points[j][k]
				s += diff * diff
			}
			d2[i][j], d2[j][i] = s, s
		}
	}

	p := conditionalProbabilities(d2, cfg.Perplexity)
	// Symmetrize and normalize.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (p[i][j] + p[j][i]) / (2 * float64(n))
			if v < 1e-12 {
				v = 1e-12
			}
			p[i][j], p[j][i] = v, v
		}
		p[i][i] = 0
	}

	// Initial layout ~ N(0, 1e-4).
	rng := vec.NewRand(cfg.Seed)
	y := make([][2]float64, n)
	for i := range y {
		y[i][0] = rng.NormFloat64() * 1e-2
		y[i][1] = rng.NormFloat64() * 1e-2
	}
	vel := make([][2]float64, n)

	const (
		exaggeration     = 4.0
		exaggerationEnds = 0.33 // fraction of iterations
	)
	for iter := 0; iter < cfg.Iterations; iter++ {
		exag := 1.0
		if float64(iter) < exaggerationEnds*float64(cfg.Iterations) {
			exag = exaggeration
		}
		momentum := 0.5
		if iter > cfg.Iterations/2 {
			momentum = 0.8
		}

		// Student-t affinities in the output space.
		q := make([][]float64, n)
		sumQ := 0.0
		for i := 0; i < n; i++ {
			q[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := y[i][0] - y[j][0]
				dy := y[i][1] - y[j][1]
				w := 1 / (1 + dx*dx + dy*dy)
				q[i][j], q[j][i] = w, w
				sumQ += 2 * w
			}
		}

		for i := 0; i < n; i++ {
			var gx, gy float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				qij := q[i][j] / sumQ
				if qij < 1e-12 {
					qij = 1e-12
				}
				mult := (exag*p[i][j] - qij) * q[i][j]
				gx += mult * (y[i][0] - y[j][0])
				gy += mult * (y[i][1] - y[j][1])
			}
			vel[i][0] = momentum*vel[i][0] - learningRate*4*gx
			vel[i][1] = momentum*vel[i][1] - learningRate*4*gy
		}
		for i := 0; i < n; i++ {
			y[i][0] += vel[i][0]
			y[i][1] += vel[i][1]
		}
	}
	return y, nil
}

// conditionalProbabilities computes p(j|i) with a per-point bandwidth
// found by binary search to match the target perplexity.
func conditionalProbabilities(d2 [][]float64, perplexity float64) [][]float64 {
	n := len(d2)
	target := math.Log(perplexity)
	p := make([][]float64, n)
	for i := 0; i < n; i++ {
		p[i] = make([]float64, n)
		lo, hi := 1e-20, 1e20
		beta := 1.0 // precision 1/(2σ²)
		for step := 0; step < 50; step++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				p[i][j] = math.Exp(-d2[i][j] * beta)
				sum += p[i][j]
			}
			if sum == 0 {
				sum = 1e-12
			}
			// Shannon entropy of the conditional distribution.
			entropy := 0.0
			for j := 0; j < n; j++ {
				if j == i || p[i][j] == 0 {
					continue
				}
				pj := p[i][j] / sum
				if pj > 1e-12 {
					entropy -= pj * math.Log(pj)
				}
			}
			for j := 0; j < n; j++ {
				p[i][j] /= sum
			}
			if math.Abs(entropy-target) < 1e-4 {
				break
			}
			if entropy > target {
				lo = beta
				if hi == 1e20 {
					beta *= 2
				} else {
					beta = (beta + hi) / 2
				}
			} else {
				hi = beta
				if lo == 1e-20 {
					beta /= 2
				} else {
					beta = (beta + lo) / 2
				}
			}
		}
	}
	return p
}

// GridDensity rasterizes 2-D points into a cells×cells count grid over
// their bounding box — the rendering of Fig. 3.
func GridDensity(points [][2]float64, cells int) ([][]int, error) {
	if cells <= 0 {
		return nil, fmt.Errorf("tsne: cells must be positive, got %d", cells)
	}
	if len(points) == 0 {
		return nil, errors.New("tsne: no points")
	}
	minX, maxX := points[0][0], points[0][0]
	minY, maxY := points[0][1], points[0][1]
	for _, p := range points {
		minX = math.Min(minX, p[0])
		maxX = math.Max(maxX, p[0])
		minY = math.Min(minY, p[1])
		maxY = math.Max(maxY, p[1])
	}
	grid := make([][]int, cells)
	for i := range grid {
		grid[i] = make([]int, cells)
	}
	spanX, spanY := maxX-minX, maxY-minY
	if spanX == 0 {
		spanX = 1
	}
	if spanY == 0 {
		spanY = 1
	}
	for _, p := range points {
		cx := int(float64(cells) * (p[0] - minX) / spanX)
		cy := int(float64(cells) * (p[1] - minY) / spanY)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		grid[cy][cx]++
	}
	return grid, nil
}

// ClusterScore measures how well labeled points cluster in 2-D: the ratio
// of mean inter-label distance to mean intra-label distance (higher means
// tighter clusters). A score meaningfully above 1 reproduces Fig. 3's
// observation that semantically related queries group together.
func ClusterScore(points [][2]float64, labels []int) (float64, error) {
	if len(points) != len(labels) {
		return 0, errors.New("tsne: points/labels length mismatch")
	}
	if len(points) < 2 {
		return 0, errors.New("tsne: need at least 2 points")
	}
	var intra, inter float64
	var nIntra, nInter int
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			dx := points[i][0] - points[j][0]
			dy := points[i][1] - points[j][1]
			dist := math.Hypot(dx, dy)
			if labels[i] == labels[j] {
				intra += dist
				nIntra++
			} else {
				inter += dist
				nInter++
			}
		}
	}
	if nIntra == 0 || nInter == 0 {
		return 0, errors.New("tsne: need both intra- and inter-label pairs")
	}
	return (inter / float64(nInter)) / (intra / float64(nIntra)), nil
}
