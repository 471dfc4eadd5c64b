package experiments

import (
	"fmt"
	"strings"

	"proximity/internal/report"
	"proximity/internal/tsne"
	"proximity/internal/vec"
)

// Fig3Result reproduces Fig. 3: the 2-D projection (PCA preprocessing +
// t-SNE) of query embeddings rendered as a density grid. The paper's
// takeaway is that syntactically different queries cluster by semantic
// content; ClusterScore quantifies it (inter-topic over intra-topic mean
// 2-D distance — well above 1 means visible clusters).
type Fig3Result struct {
	// Points is the number of projected queries.
	Points int
	// PCAComponents is the intermediate dimensionality.
	PCAComponents int
	// Grid is the density raster (GridCells × GridCells).
	Grid [][]int
	// ClusterScore is the topic-separation ratio in the 2-D layout.
	ClusterScore float64
	// OccupiedCells counts non-empty raster cells.
	OccupiedCells int
}

// Fig3EmbeddingClusters projects the TripClick query embeddings.
func (s *Suite) Fig3EmbeddingClusters() (*Fig3Result, error) {
	log, _, err := s.TripClick()
	if err != nil {
		return nil, err
	}
	n := s.cfg.TSNEPoints
	if n > len(log.Bench.Questions) {
		n = len(log.Bench.Questions)
	}
	enc := log.Bench.Embedder()
	data := make([]vec.Vector, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		q := log.Bench.Questions[i]
		data[i] = enc.Embed(q.Text)
		labels[i] = q.Topic
	}

	// PCA to 30 dimensions (or fewer for tiny configs), as in §2.3.
	components := 30
	if components > s.cfg.Dim {
		components = s.cfg.Dim
	}
	if components > n-1 {
		components = n - 1
	}
	reduced, err := tsne.PCA(data, components, 11)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3 pca: %w", err)
	}
	pts, err := tsne.Embed(reduced, tsne.Config{
		Iterations: s.cfg.TSNEIterations,
		Seed:       12,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3 tsne: %w", err)
	}
	grid, err := tsne.GridDensity(pts, s.cfg.GridCells)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3 grid: %w", err)
	}
	score, err := tsne.ClusterScore(pts, labels)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3 score: %w", err)
	}
	occupied := 0
	for _, row := range grid {
		for _, c := range row {
			if c > 0 {
				occupied++
			}
		}
	}
	return &Fig3Result{
		Points:        n,
		PCAComponents: components,
		Grid:          grid,
		ClusterScore:  score,
		OccupiedCells: occupied,
	}, nil
}

// Render prints the density raster and the cluster score.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: 2-D projection of query embeddings (PCA→%d, then t-SNE)\n", r.PCAComponents)
	fmt.Fprintf(&b, "points: %d, grid: %dx%d (%d occupied cells)\n",
		r.Points, len(r.Grid), len(r.Grid), r.OccupiedCells)
	fmt.Fprintf(&b, "topic cluster score (inter/intra distance ratio): %.2f\n\n", r.ClusterScore)
	b.WriteString(report.DensityArt(r.Grid))
	return b.String()
}
