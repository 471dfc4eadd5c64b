package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"proximity/internal/core"
	"proximity/internal/lsh"
	"proximity/internal/stats"
	"proximity/internal/vec"
)

// ANNIndexOptions configures the cache-lookup A/B: the same fill and the
// same query stream replayed against the flat-scan, LSH-bucket, and
// graph-indexed cache variants.
type ANNIndexOptions struct {
	// Entries lists the resident-entry counts to measure (default
	// 100_000; the paper-scale run adds 1_000_000).
	Entries []int
	// Dim is the embedding dimensionality (default 32 — small enough
	// that the 1M flat baseline finishes, large enough that distance
	// kernels dominate).
	Dim int
	// Queries is the lookup count per variant (default 400, half
	// within-tolerance, half far misses).
	Queries int
	// Tolerance is the cache-wide τ (default 0.5).
	Tolerance float32
	// EfSweep lists the indexed variant's beam widths to evaluate over
	// one graph build (default 64, 128, 256) — lookups re-run per width
	// via SetEfSearch, so the expensive construction is paid once. The
	// headline comparison picks the narrowest beam whose hit rate
	// reaches parity with the flat scan.
	EfSweep []int
	// M and EfConstruction shape the indexed variant's graph (defaults
	// 16 and 96: enough connectivity that recall holds at 1M entries on
	// isotropic Gaussian keys — the hardest geometry for a graph index).
	M              int
	EfConstruction int
	// Seed drives every random draw.
	Seed uint64
}

func (o *ANNIndexOptions) fillDefaults() {
	if len(o.Entries) == 0 {
		o.Entries = []int{100_000}
	}
	if o.Dim == 0 {
		o.Dim = 32
	}
	if o.Queries == 0 {
		o.Queries = 400
	}
	if o.Tolerance == 0 {
		o.Tolerance = 0.5
	}
	if len(o.EfSweep) == 0 {
		o.EfSweep = []int{64, 128, 256}
	}
	if o.M == 0 {
		o.M = 16
	}
	if o.EfConstruction == 0 {
		o.EfConstruction = 96
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ANNVariant is one cache variant's measurement at one entry count.
type ANNVariant struct {
	Name       string  `json:"name"`
	FillMillis float64 `json:"fillMs"`
	HitRate    float64 `json:"hitRate"`
	MeanMicros float64 `json:"meanUs"`
	P50Micros  float64 `json:"p50Us"`
	P99Micros  float64 `json:"p99Us"`
	DistComps  int64   `json:"distComps"`
	GraphHops  int64   `json:"graphHops,omitempty"`
	Reranks    int64   `json:"reranks,omitempty"`
}

// ANNIndexPoint is the three-way comparison at one entry count.
type ANNIndexPoint struct {
	Entries int        `json:"entries"`
	Flat    ANNVariant `json:"flat"`
	LSH     ANNVariant `json:"lsh"`
	// Indexed is the headline indexed row: the narrowest swept beam
	// whose hit rate reaches parity with the flat scan (within one
	// standard error of the query sample), else the highest-recall row.
	Indexed ANNVariant `json:"indexed"`
	// IndexedSweep is every swept beam width, narrowest first — the
	// recall-vs-latency tradeoff curve behind the headline choice.
	IndexedSweep []ANNVariant `json:"indexedSweep"`
	// P99SpeedupVsFlat is flat p99 over indexed p99 — the headline
	// claim (≥5x at 1M entries).
	P99SpeedupVsFlat float64 `json:"p99SpeedupVsFlat"`
	// HitRateDelta is indexed hit rate minus flat hit rate; near zero
	// because exact re-ranking preserves τ admission once the beam
	// reliably reaches the admissible node.
	HitRateDelta float64 `json:"hitRateDelta"`
}

// ANNIndexResult is the full A/B, JSON-serializable as the repo's
// BENCH_*.json trajectory format.
type ANNIndexResult struct {
	Dim       int             `json:"dim"`
	Queries   int             `json:"queries"`
	Tolerance float32         `json:"tolerance"`
	Points    []ANNIndexPoint `json:"points"`
}

// ANNIndex measures cache lookup latency head-to-head: flat scan vs LSH
// buckets vs the graph-indexed cache, at each requested entry count. All
// variants are filled with the same entries in the same order and replay
// the same query stream (half perturbed within τ of cached keys, half far
// misses), so hit-rate differences are attributable to the lookup
// structure alone. Standalone (no Suite): the A/B needs no corpus, just
// geometry.
func ANNIndex(opts ANNIndexOptions) (*ANNIndexResult, error) {
	opts.fillDefaults()
	res := &ANNIndexResult{Dim: opts.Dim, Queries: opts.Queries, Tolerance: opts.Tolerance}
	for _, n := range opts.Entries {
		if n < 1 {
			return nil, fmt.Errorf("experiments: entry count must be positive, got %d", n)
		}
		point, err := annIndexPoint(n, opts)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *point)
	}
	return res, nil
}

func annIndexPoint(n int, opts ANNIndexOptions) (*ANNIndexPoint, error) {
	rng := vec.NewRand(opts.Seed)
	keys := make([]vec.Vector, n)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomGaussian(rng, opts.Dim), 2)
	}
	// Half the queries land within τ of a cached key (hits under any
	// exact lookup), half are fresh draws (far misses: two random
	// Gaussian points are ~2√(2d) apart, orders beyond τ).
	queries := make([]vec.Vector, opts.Queries)
	for i := range queries {
		if i%2 == 0 {
			base := keys[rng.IntN(n)]
			dir := vec.RandomGaussian(rng, opts.Dim)
			dir = vec.Scale(dir, opts.Tolerance*0.8*float32(rng.Float64())/vec.Norm(dir))
			q := vec.Clone(base)
			for j := range q {
				q[j] += dir[j]
			}
			queries[i] = q
		} else {
			queries[i] = vec.Scale(vec.RandomGaussian(rng, opts.Dim), 2)
		}
	}

	point := &ANNIndexPoint{Entries: n}

	flat, err := core.NewFlat(opts.Dim, core.Options{Capacity: n, Tolerance: opts.Tolerance})
	if err != nil {
		return nil, err
	}
	point.Flat = measureVariant("flat", flat, keys, queries)

	// LSH sized so expected bucket occupancy stays near the paper's
	// recommended b=20: L = log2(n/b), capped at the hasher's limit.
	bits := int(math.Ceil(math.Log2(float64(n)/float64(core.DefaultBucketCapacity) + 1)))
	if bits < 1 {
		bits = 1
	}
	if bits > lsh.MaxBits {
		bits = lsh.MaxBits
	}
	lshc, err := core.NewLSH(opts.Dim, core.LSHOptions{
		Bits:      bits,
		Tolerance: opts.Tolerance,
		Seed:      opts.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	point.LSH = measureVariant("lsh", lshc, keys, queries)

	idx, err := core.NewIndexed(opts.Dim, core.IndexedOptions{
		Capacity:       n,
		Tolerance:      opts.Tolerance,
		EfSearch:       opts.EfSweep[0],
		M:              opts.M,
		EfConstruction: opts.EfConstruction,
		Seed:           opts.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	// One graph build, one query pass per swept beam width.
	fillMs := fillVariant(idx, keys)
	var prevHops, prevReranks int64
	for _, ef := range opts.EfSweep {
		idx.SetEfSearch(ef)
		row := queryVariant(fmt.Sprintf("indexed-ef%d", ef), idx, queries)
		row.FillMillis = fillMs
		is := idx.Stats().Index
		row.GraphHops = is.GraphHops - prevHops
		row.Reranks = is.Reranks - prevReranks
		prevHops, prevReranks = is.GraphHops, is.Reranks
		point.IndexedSweep = append(point.IndexedSweep, row)
	}
	point.Indexed = pickHeadline(point.IndexedSweep, point.Flat.HitRate, len(queries))

	if point.Indexed.P99Micros > 0 {
		point.P99SpeedupVsFlat = point.Flat.P99Micros / point.Indexed.P99Micros
	}
	point.HitRateDelta = point.Indexed.HitRate - point.Flat.HitRate
	return point, nil
}

// pickHeadline selects the narrowest beam at hit-rate parity with the
// flat scan: within one binomial standard error of the flat hit rate on
// this query sample. If no row reaches parity, the highest-recall row is
// the honest claim.
func pickHeadline(sweep []ANNVariant, flatRate float64, queries int) ANNVariant {
	se := math.Sqrt(flatRate * (1 - flatRate) / float64(queries))
	best := sweep[0]
	for _, row := range sweep {
		if row.HitRate > best.HitRate {
			best = row
		}
	}
	for _, row := range sweep {
		if row.HitRate >= flatRate-se {
			return row
		}
	}
	return best
}

func measureVariant(name string, c core.Cache, keys []vec.Vector, queries []vec.Vector) ANNVariant {
	fillMs := fillVariant(c, keys)
	row := queryVariant(name, c, queries)
	row.FillMillis = fillMs
	return row
}

func fillVariant(c core.Cache, keys []vec.Vector) float64 {
	start := time.Now()
	for i, k := range keys {
		c.Put(k, []int{i})
	}
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// queryVariant replays the query stream and reports this pass's own
// latency distribution and distance-work delta (counters are cumulative
// across sweep passes over the same cache).
func queryVariant(name string, c core.Cache, queries []vec.Vector) ANNVariant {
	compsBefore := c.Stats().DistComps
	var rec stats.LatencyRecorder
	hits := 0
	for _, q := range queries {
		start := time.Now()
		_, ok := c.Get(q)
		rec.Record(time.Since(start))
		if ok {
			hits++
		}
	}
	return ANNVariant{
		Name:       name,
		HitRate:    float64(hits) / float64(len(queries)),
		MeanMicros: float64(rec.Mean()) / float64(time.Microsecond),
		P50Micros:  float64(rec.Percentile(50)) / float64(time.Microsecond),
		P99Micros:  float64(rec.Percentile(99)) / float64(time.Microsecond),
		DistComps:  c.Stats().DistComps - compsBefore,
	}
}

// WriteJSON writes the result as indented JSON — the BENCH_*.json
// trajectory format CI smoke-checks for well-formedness.
func (r *ANNIndexResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render formats the comparison, one block per entry count.
func (r *ANNIndexResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache lookup A/B: flat vs lsh vs indexed (dim=%d, τ=%v, %d queries)\n",
		r.Dim, r.Tolerance, r.Queries)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "--- %d entries ---\n", p.Entries)
		fmt.Fprintf(&b, "%-14s %12s %10s %12s %12s %14s\n",
			"variant", "fill(ms)", "hit rate", "p50(µs)", "p99(µs)", "dist comps")
		rows := append([]ANNVariant{p.Flat, p.LSH}, p.IndexedSweep...)
		for _, v := range rows {
			fmt.Fprintf(&b, "%-14s %12.1f %10.3f %12.1f %12.1f %14d\n",
				v.Name, v.FillMillis, v.HitRate, v.P50Micros, v.P99Micros, v.DistComps)
		}
		fmt.Fprintf(&b, "%s vs flat: %.1fx lower p99, hit-rate delta %+.3f\n",
			p.Indexed.Name, p.P99SpeedupVsFlat, p.HitRateDelta)
	}
	return b.String()
}
