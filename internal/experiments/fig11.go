package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"proximity/internal/core"
	"proximity/internal/report"
	"proximity/internal/stats"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// Fig11Result reproduces Fig. 11: the pure cache-lookup time of
// MedRAG-Zipf queries for (a) Proximity-FLAT across capacities and
// tolerances and (b) Proximity-LSH across hash widths and tolerances.
// Unlike Fig. 7d this excludes database time: only the Get call inside
// the cache is timed. The paper's shape: FLAT grows with c (and mildly
// with τ), LSH stays flat everywhere.
type Fig11Result struct {
	Seeds int
	Taus  []float64
	Caps  []int
	Bits  []int
	// FlatUS[ci][ti] and LSHUS[bi][ti] are mean lookup microseconds.
	FlatUS [][]float64
	LSHUS  [][]float64
}

// zeroDB is a constant-time database stub used by the lookup-timing
// experiments. Cache timing depends only on which queries were inserted
// (the hit/miss sequence), never on the stored document values, so
// replacing the real index leaves the measured quantity untouched while
// removing minutes of irrelevant brute-force search.
type zeroDB struct {
	dim  int
	size int
	vec  vec.Vector
}

var (
	_ vectordb.DB           = (*zeroDB)(nil)
	_ vectordb.VectorSource = (*zeroDB)(nil)
)

func newZeroDB(dim, size int) *zeroDB {
	return &zeroDB{dim: dim, size: size, vec: make(vec.Vector, dim)}
}

func (z *zeroDB) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	if k <= 0 {
		return nil, vectordb.ErrBadK
	}
	if len(q) != z.dim {
		return nil, vec.ErrDimensionMismatch
	}
	if k > z.size {
		k = z.size
	}
	out := make([]vec.Scored, k)
	for i := range out {
		out[i] = vec.Scored{ID: i}
	}
	return out, nil
}

func (z *zeroDB) Dim() int { return z.dim }
func (z *zeroDB) Len() int { return z.size }
func (z *zeroDB) Vector(id int) (vec.Vector, error) {
	if id < 0 || id >= z.size {
		return nil, fmt.Errorf("zerodb: id %d out of range", id)
	}
	return z.vec, nil
}

// fig11Repeats is how many times each Fig. 11 cell is timed per seed.
const fig11Repeats = 5

// Fig11LookupParams runs both grids. Cells run sequentially: wall-clock
// microbenchmarks must not share the CPU.
func (s *Suite) Fig11LookupParams() (*Fig11Result, error) {
	full, _, _, err := s.MedRAG()
	if err != nil {
		return nil, err
	}
	db := newZeroDB(s.cfg.Dim, full.Corpus.Len())

	taus := []float64{2.5, 5, 7.5, 10}
	caps := s.fig11Caps()
	lshBits := []int{4, 6, 8, 10}
	res := &Fig11Result{
		Seeds:  s.cfg.Seeds,
		Taus:   taus,
		Caps:   caps,
		Bits:   lshBits,
		FlatUS: newGrid(len(caps), len(taus)),
		LSHUS:  newGrid(len(lshBits), len(taus)),
	}

	// Each (cell, seed) pair is timed fig11Repeats times on a fresh cache
	// and the minimum kept: host noise only ever inflates a wall-clock
	// mean. The repeats are taken in rounds over the whole grid, so a
	// burst of noise lasting a few cells cannot cover every repeat of
	// the same cell.
	type cell struct {
		spec CacheSpec
		out  *float64
	}
	var cells []cell
	for ci, c := range caps {
		for ti, tau := range taus {
			cells = append(cells, cell{CacheSpec{
				Kind:      "flat",
				Capacity:  c,
				Tolerance: float32(tau),
				Policy:    core.LRU,
			}, &res.FlatUS[ci][ti]})
		}
	}
	for bi, bitsN := range lshBits {
		for ti, tau := range taus {
			cells = append(cells, cell{CacheSpec{
				Kind:           "lsh",
				Bits:           bitsN,
				BucketCapacity: core.DefaultBucketCapacity,
				Tolerance:      float32(tau),
				Policy:         core.LRU,
			}, &res.LSHUS[bi][ti]})
		}
	}
	seeds := s.seeds()
	best := make([][]float64, len(cells))
	for i := range best {
		best[i] = make([]float64, len(seeds))
		for j := range best[i] {
			best[i][j] = math.Inf(1)
		}
	}
	for rep := 0; rep < fig11Repeats; rep++ {
		for i, cl := range cells {
			for j, seed := range seeds {
				w, err := s.zipfWorkload(seed)
				if err != nil {
					return nil, err
				}
				cache, err := s.newCache(cl.spec, seed)
				if err != nil {
					return nil, err
				}
				run, err := s.run(runSpec{
					bench:      full,
					db:         db,
					w:          w,
					cache:      cache,
					k:          full.DefaultK,
					rerank:     s.cfg.ZipfRerank,
					source:     db,
					answerSeed: seed,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: fig11 cell %+v: %w", cl.spec, err)
				}
				best[i][j] = min(best[i][j], float64(run.MeanCacheLookup())/float64(time.Microsecond))
			}
		}
	}
	for i, cl := range cells {
		var mean stats.Welford
		for _, v := range best[i] {
			mean.Add(v)
		}
		*cl.out = mean.Mean()
	}
	return res, nil
}

// fig11Caps scales the paper's capacity column {20,50,100,200} down when
// the configured workload has too few unique questions to saturate it.
func (s *Suite) fig11Caps() []int {
	caps := []int{20, 50, 100, 200}
	if s.cfg.MedRAGQuestions < 200 {
		caps = []int{5, 10, 20, s.cfg.MedRAGQuestions / 2}
	}
	return caps
}

// Render prints the two grids.
func (r *Fig11Result) Render() string {
	tauCols := make([]string, len(r.Taus))
	for i, tau := range r.Taus {
		tauCols[i] = trimFloat(tau)
	}
	capRows := make([]string, len(r.Caps))
	for i, c := range r.Caps {
		capRows[i] = strconv.Itoa(c)
	}
	bitRows := make([]string, len(r.Bits))
	for i, b := range r.Bits {
		bitRows[i] = strconv.Itoa(b)
	}
	flat := report.NewHeatmap("Figure 11a: FLAT+LRU cache lookup [µs]", "c", "tau", capRows, tauCols)
	lsh := report.NewHeatmap("Figure 11b: LSH+LRU cache lookup [µs]", "L", "tau", bitRows, tauCols)
	for ci := range r.Caps {
		for ti := range r.Taus {
			flat.SetFloat(ci, ti, r.FlatUS[ci][ti], 2)
		}
	}
	for bi := range r.Bits {
		for ti := range r.Taus {
			lsh.SetFloat(bi, ti, r.LSHUS[bi][ti], 2)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11, MedRAG-Zipf cache lookup times, %d seed(s)\n\n", r.Seeds)
	b.WriteString(flat.String())
	b.WriteByte('\n')
	b.WriteString(lsh.String())
	return b.String()
}
