package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"proximity/internal/core"
	"proximity/internal/stats"
	"proximity/internal/tier"
	"proximity/internal/vec"
)

// TieredOptions configures the tiered-cache A/B: a single-tier FLAT
// cache of the hot capacity against a tiered cache layering a warm tier
// of ratio× that capacity underneath, at each hot:warm ratio.
type TieredOptions struct {
	// Hot is the hot-tier (and single-tier baseline) capacity
	// (default 1000).
	Hot int
	// Ratios lists the warm:hot capacity ratios to measure (default 4,
	// 16 — the 1:4 and 1:16 hierarchies).
	Ratios []int
	// Dim is the embedding dimensionality (default 768, the deployment
	// shape).
	Dim int
	// Queries is the lookup count per path (hot-resident and
	// warm-resident) per variant (default 1000).
	Queries int
	// Tolerance is the cache-wide τ (default 4; keys are scaled
	// Gaussians of norm ≈ 2√dim, so random pairs sit far outside it).
	//proximity:allow deadfield item 4 deletes this experiment with the tier (item 10)
	Tolerance float32
	// Seed drives every random draw.
	//proximity:allow deadfield item 4 deletes this experiment with the tier (item 10)
	Seed uint64
}

func (o *TieredOptions) fillDefaults() {
	if o.Hot == 0 {
		o.Hot = 1000
	}
	if len(o.Ratios) == 0 {
		o.Ratios = []int{4, 16}
	}
	if o.Dim == 0 {
		o.Dim = 768
	}
	if o.Queries == 0 {
		o.Queries = 1000
	}
	if o.Tolerance == 0 {
		o.Tolerance = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// TieredVariant is one cache configuration's measurement at one ratio.
type TieredVariant struct {
	Name string `json:"name"`
	// HitRate is the within-τ hit fraction over both query paths.
	HitRate float64 `json:"hitRate"`
	// HotMeanMicros / HotP99Micros is the Get latency on queries whose
	// target resides in the hot tier (the path the tiered design must
	// not slow down).
	HotMeanMicros float64 `json:"hotMeanUs"`
	HotP99Micros  float64 `json:"hotP99Us"`
	// DeepMeanMicros / DeepP99Micros is the Get latency on queries whose
	// target has aged past the hot capacity — a warm-tier hit for the
	// tiered cache, a scan-and-miss for the single-tier baseline.
	DeepMeanMicros float64 `json:"deepMeanUs"`
	DeepP99Micros  float64 `json:"deepP99Us"`
}

// TieredPoint is the single-vs-tiered comparison at one hot:warm ratio.
type TieredPoint struct {
	Ratio int `json:"ratio"`
	Hot   int `json:"hot"`
	Warm  int `json:"warm"`
	// Single is the FLAT baseline at the hot capacity — identical
	// heap-resident footprint to the tiered variant's hot tier.
	Single TieredVariant `json:"single"`
	// Tiered layers the warm tier underneath the same hot cache.
	Tiered TieredVariant `json:"tiered"`
	// HotLatencyRatio is tiered over single mean hot-path Get latency —
	// the tax the warm tier's existence puts on hot hits (≤ 1.10
	// acceptance).
	HotLatencyRatio float64 `json:"hotLatencyRatio"`
	// HitRateUplift is the tiered hit rate minus the single-tier hit
	// rate — the recall the retained history buys.
	HitRateUplift float64 `json:"hitRateUplift"`
	// WarmScanFrac is the fraction of warm-resident records a warm
	// lookup actually read: the rest were ruled out on their heads.
	WarmScanFrac float64 `json:"warmScanFrac"`
	// HitRateBefore / HitRateAfter bracket a snapshot-restore restart of
	// the tiered cache under an LRU mixed workload; RestartRecovery is
	// their ratio (≥ 0.90 acceptance).
	HitRateBefore   float64 `json:"hitRateBefore"`
	HitRateAfter    float64 `json:"hitRateAfter"`
	RestartRecovery float64 `json:"restartRecovery"`
}

// TieredResult is the full sweep, JSON-serializable as BENCH_tiered.json.
type TieredResult struct {
	Hot       int           `json:"hot"`
	Dim       int           `json:"dim"`
	Queries   int           `json:"queries"`
	Tolerance float32       `json:"tolerance"`
	Points    []TieredPoint `json:"points"`
}

// Tiered measures what the warm tier buys and costs: hit-rate uplift on
// queries that aged past the hot capacity, hot-path latency tax, warm
// pruning effectiveness, and hit-rate recovery across a snapshot-restore
// restart. The latency A/B runs under FIFO so tier residency is static
// during measurement (no promotions reshuffling the layers mid-timing);
// the restart bracket runs under LRU, the policy warm restarts deploy
// with. Standalone (no Suite): the A/B needs no corpus, just geometry.
func Tiered(opts TieredOptions) (*TieredResult, error) {
	opts.fillDefaults()
	if opts.Hot < 1 {
		return nil, fmt.Errorf("experiments: hot capacity must be positive, got %d", opts.Hot)
	}
	res := &TieredResult{
		Hot:       opts.Hot,
		Dim:       opts.Dim,
		Queries:   opts.Queries,
		Tolerance: opts.Tolerance,
	}
	for _, ratio := range opts.Ratios {
		if ratio < 1 {
			return nil, fmt.Errorf("experiments: warm:hot ratio must be ≥ 1, got %d", ratio)
		}
		point, err := tieredPoint(ratio, opts)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *point)
	}
	return res, nil
}

func tieredPoint(ratio int, opts TieredOptions) (*TieredPoint, error) {
	hot, warm := opts.Hot, opts.Hot*ratio
	total := hot + warm
	rng := vec.NewRand(opts.Seed)
	keys := make([]vec.Vector, total)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomGaussian(rng, opts.Dim), 2)
	}
	// Under FIFO fills with no lookups, the newest hot keys stay hot and
	// everything older layers into the warm tier; the single-tier
	// baseline retains only the newest hot keys.
	nearDup := func(base vec.Vector, radius float32) vec.Vector {
		dir := vec.RandomGaussian(rng, opts.Dim)
		dir = vec.Scale(dir, radius*float32(rng.Float64())/vec.Norm(dir))
		return vec.Add(base, dir)
	}
	// Hot-path queries are tight repeats (0.1τ): repeat traffic — the
	// reason the entry is hot — lands close to its key, and the tight
	// hot-hit distance is what lets the warm tier rule (near) every key
	// out on its head on the path that must stay fast. Deep queries get
	// the full approximate-hit radius (0.8τ): they bound the warm tier's
	// own lookup cost in its worst admissible case.
	hotQueries := make([]vec.Vector, opts.Queries)
	for i := range hotQueries {
		hotQueries[i] = nearDup(keys[total-hot+rng.IntN(hot)], opts.Tolerance*0.1)
	}
	deepQueries := make([]vec.Vector, opts.Queries)
	for i := range deepQueries {
		deepQueries[i] = nearDup(keys[rng.IntN(total-hot)], opts.Tolerance*0.8)
	}

	single, err := core.NewFlat(opts.Dim, core.Options{
		Capacity:  hot,
		Tolerance: opts.Tolerance,
		Policy:    core.FIFO,
	})
	if err != nil {
		return nil, err
	}
	tiered, err := tier.New(opts.Dim, tier.Options{
		HotCapacity:  hot,
		WarmCapacity: warm,
		Tolerance:    opts.Tolerance,
		Policy:       core.FIFO,
	})
	if err != nil {
		return nil, err
	}
	defer tiered.Close()

	point := &TieredPoint{Ratio: ratio, Hot: hot, Warm: warm}
	for i, k := range keys {
		single.Put(k, []int{i})
		tiered.Put(k, []int{i})
	}
	// FIFO Gets leave tier residency untouched, so repeated rounds replay
	// identical work. Rounds alternate between the two variants and each
	// keeps its fastest, so machine-load drift lands on both sides of the
	// acceptance-gated hot-path ratio instead of skewing one.
	hotS, hotT := alternateGets(single, tiered, hotQueries, 5)
	deepS, deepT := alternateGets(single, tiered, deepQueries, 2)
	for _, v := range []struct {
		name      string
		hot, deep timedRound
		out       *TieredVariant
	}{
		{"single", hotS, deepS, &point.Single},
		{"tiered", hotT, deepT, &point.Tiered},
	} {
		*v.out = TieredVariant{
			Name:           v.name,
			HitRate:        float64(v.hot.hits+v.deep.hits) / float64(2*opts.Queries),
			HotMeanMicros:  float64(v.hot.rec.Mean()) / float64(time.Microsecond),
			HotP99Micros:   float64(v.hot.rec.Percentile(99)) / float64(time.Microsecond),
			DeepMeanMicros: float64(v.deep.rec.Mean()) / float64(time.Microsecond),
			DeepP99Micros:  float64(v.deep.rec.Percentile(99)) / float64(time.Microsecond),
		}
	}
	if point.Single.HotMeanMicros > 0 {
		point.HotLatencyRatio = point.Tiered.HotMeanMicros / point.Single.HotMeanMicros
	}
	point.HitRateUplift = point.Tiered.HitRate - point.Single.HitRate
	if ts := tiered.TierStats(); ts.WarmLookups > 0 {
		point.WarmScanFrac = float64(ts.WarmScanned) / float64(ts.WarmLookups) / float64(warm)
	}

	before, after, err := tieredRestart(keys, hot, warm, opts)
	if err != nil {
		return nil, err
	}
	point.HitRateBefore, point.HitRateAfter = before, after
	if before > 0 {
		point.RestartRecovery = after / before
	}
	return point, nil
}

// timedRound is one cache's fastest measured replay of a query set.
type timedRound struct {
	rec  *stats.LatencyRecorder
	hits int
}

// timeRound replays the query set once, timing each Get.
func timeRound(c core.Cache, queries []vec.Vector) timedRound {
	rec := &stats.LatencyRecorder{}
	hits := 0
	for _, q := range queries {
		start := time.Now()
		_, ok := c.Get(q)
		rec.Record(time.Since(start))
		if ok {
			hits++
		}
	}
	return timedRound{rec, hits}
}

// alternateGets times the same query set against both caches in
// alternating rounds — an untimed warmup each, then rounds timed passes —
// and returns each cache's fastest round by mean.
func alternateGets(a, b core.Cache, queries []vec.Vector, rounds int) (bestA, bestB timedRound) {
	for _, q := range queries {
		a.Get(q)
		b.Get(q)
	}
	for r := 0; r < rounds; r++ {
		if ra := timeRound(a, queries); bestA.rec == nil || ra.rec.Mean() < bestA.rec.Mean() {
			bestA = ra
		}
		if rb := timeRound(b, queries); bestB.rec == nil || rb.rec.Mean() < bestB.rec.Mean() {
			bestB = rb
		}
	}
	return bestA, bestB
}

// tieredRestart brackets a snapshot-restore restart: steady-state hit
// rate on an LRU tiered cache, then the same workload shape against a
// fresh cache refilled from the snapshot.
func tieredRestart(keys []vec.Vector, hot, warm int, opts TieredOptions) (before, after float64, err error) {
	build := func() (*tier.TieredCache, error) {
		return tier.New(opts.Dim, tier.Options{
			HotCapacity:  hot,
			WarmCapacity: warm,
			Tolerance:    opts.Tolerance,
			Policy:       core.LRU,
		})
	}
	c, err := build()
	if err != nil {
		return 0, 0, err
	}
	defer c.Close()
	for i, k := range keys {
		c.Put(k, []int{i})
	}
	// Mixed workload over the whole resident set: hot hits, warm hits,
	// and LRU promotions all participate in the steady state.
	rng := vec.NewRand(opts.Seed + 4)
	measure := func(cc *tier.TieredCache) float64 {
		hits := 0
		for i := 0; i < 2*opts.Queries; i++ {
			base := keys[rng.IntN(len(keys))]
			dir := vec.RandomGaussian(rng, opts.Dim)
			dir = vec.Scale(dir, opts.Tolerance*0.8*float32(rng.Float64())/vec.Norm(dir))
			if _, ok := cc.Get(vec.Add(base, dir)); ok {
				hits++
			}
		}
		return float64(hits) / float64(2*opts.Queries)
	}
	before = measure(c)

	dir, err := os.MkdirTemp("", "proximity-restart-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cache.snap")
	if err := core.SaveSnapshot(path, opts.Dim, c); err != nil {
		return 0, 0, err
	}
	restored, err := build()
	if err != nil {
		return 0, 0, err
	}
	defer restored.Close()
	if _, err := core.LoadSnapshot(path, opts.Dim, restored); err != nil {
		return 0, 0, err
	}
	after = measure(restored)
	return before, after, nil
}

// WriteJSON writes the result as indented JSON — the BENCH_*.json
// trajectory format CI smoke-checks for well-formedness.
func (r *TieredResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render formats the comparison, one block per hot:warm ratio.
func (r *TieredResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tiered cache A/B: FLAT(%d) vs %d hot + ratio× warm (dim=%d, τ=%v, %d queries per path)\n",
		r.Hot, r.Hot, r.Dim, r.Tolerance, r.Queries)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "--- 1:%d (hot %d, warm %d) ---\n", p.Ratio, p.Hot, p.Warm)
		fmt.Fprintf(&b, "%-8s %9s %12s %12s %13s %13s\n",
			"variant", "hit rate", "hot(µs)", "hotP99(µs)", "deep(µs)", "deepP99(µs)")
		for _, v := range []TieredVariant{p.Single, p.Tiered} {
			fmt.Fprintf(&b, "%-8s %9.3f %12.2f %12.2f %13.2f %13.2f\n",
				v.Name, v.HitRate, v.HotMeanMicros, v.HotP99Micros, v.DeepMeanMicros, v.DeepP99Micros)
		}
		fmt.Fprintf(&b, "hot-path latency ratio %.3f; hit-rate uplift %+.3f; warm scan fraction %.3f\n",
			p.HotLatencyRatio, p.HitRateUplift, p.WarmScanFrac)
		fmt.Fprintf(&b, "restart: hit rate %.3f -> %.3f (recovery %.3f)\n",
			p.HitRateBefore, p.HitRateAfter, p.RestartRecovery)
	}
	return b.String()
}
