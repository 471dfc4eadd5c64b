package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"proximity/internal/core"
	"proximity/internal/stats"
	"proximity/internal/vec"
)

// ChurnOptions configures the churn-decay A/B: the same FIFO
// eviction-and-reinsert stream replayed against the indexed cache with
// in-edge repair disabled (the pre-repair baseline), repair only, and
// repair plus scheduled maintenance — each scored against a graph freshly
// rebuilt over the identical resident set (the recall ceiling).
type ChurnOptions struct {
	// Capacity is the cache size under churn (default 2000).
	Capacity int
	// Dim is the embedding dimensionality (default 16).
	Dim int
	// Mults lists the churn multiples to measure: total Puts per point =
	// mult × Capacity, so mult 1 is a pure fill and mult 5 evicts and
	// reinserts 4× the capacity (default 1, 2, 5).
	Mults []int
	// Queries is the near-duplicate lookup count per variant, all placed
	// within τ of resident keys (default 1000) — the approximate-hit
	// workload the cache exists to serve.
	Queries int
	// Tolerance is the cache-wide τ (default 0.4).
	Tolerance float32
	// MaintEvery and MaintBudget tune the maintained variant's schedule;
	// zero values take the core defaults (64 reuses, 16 nodes per pass).
	MaintEvery  int
	MaintBudget int
	// Seed drives every random draw.
	Seed uint64
}

func (o *ChurnOptions) fillDefaults() {
	if o.Capacity == 0 {
		o.Capacity = 2000
	}
	if o.Dim == 0 {
		o.Dim = 16
	}
	if len(o.Mults) == 0 {
		o.Mults = []int{1, 2, 5}
	}
	if o.Queries == 0 {
		o.Queries = 1000
	}
	if o.Tolerance == 0 {
		o.Tolerance = 0.4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ChurnVariant is one cache configuration's measurement at one churn
// multiple.
type ChurnVariant struct {
	Name string `json:"name"`
	// SelfRecall is the fraction of resident keys whose lookup returns
	// their own entry — the recall the stale-edge bug erodes.
	SelfRecall float64 `json:"selfRecall"`
	// HitRate is the within-τ near-duplicate query hit fraction.
	HitRate float64 `json:"hitRate"`
	// PutMeanMicros / PutP99Micros is the per-Put latency over the whole
	// churn stream, maintenance passes included for the maintained row.
	PutMeanMicros float64 `json:"putMeanUs"`
	PutP99Micros  float64 `json:"putP99Us"`
	// MaintMillis is the wall time spent inside scheduled maintenance
	// passes (a subset of the Put time above).
	MaintMillis float64 `json:"maintMs"`
	// Repair counters, cumulative over the stream.
	ReusedSlots     int64 `json:"reusedSlots"`
	SeveredInEdges  int64 `json:"severedInEdges"`
	ReroutedInEdges int64 `json:"reroutedInEdges"`
	RepairPasses    int64 `json:"repairPasses"`
	RepairedNodes   int64 `json:"repairedNodes"`
}

// ChurnPoint is the four-way comparison at one churn multiple.
type ChurnPoint struct {
	Mult int `json:"mult"`
	Puts int `json:"puts"`
	// Unrepaired replays the stream with in-edge repair disabled — the
	// pre-repair behavior whose recall decays with churn.
	Unrepaired ChurnVariant `json:"unrepaired"`
	// Repaired tracks and severs stale in-edges at slot reuse but never
	// runs a background pass.
	Repaired ChurnVariant `json:"repaired"`
	// Maintained adds the scheduled incremental repair pass.
	Maintained ChurnVariant `json:"maintained"`
	// Fresh is a graph rebuilt from scratch over the identical resident
	// set — the ceiling churned variants are scored against.
	Fresh ChurnVariant `json:"fresh"`
	// SelfRecallVsFresh is maintained self-recall over fresh self-recall
	// — the headline acceptance (≥ 0.98 at 5× churn).
	SelfRecallVsFresh float64 `json:"selfRecallVsFresh"`
	// UnrepairedVsFresh is the same ratio for the baseline — how much
	// recall the bug costs at this churn multiple.
	UnrepairedVsFresh float64 `json:"unrepairedVsFresh"`
	// PutOverhead is the in-edge tracking cost: repaired mean Put
	// latency over unrepaired, minus 1 (≤ 0.10 acceptance).
	PutOverhead float64 `json:"putOverhead"`
	// MaintOverhead is the same ratio for the maintained variant, whose
	// Puts additionally absorb the scheduled repair passes.
	MaintOverhead float64 `json:"maintOverhead"`
}

// ChurnResult is the full sweep, JSON-serializable as BENCH_churn.json.
type ChurnResult struct {
	Capacity  int          `json:"capacity"`
	Dim       int          `json:"dim"`
	Queries   int          `json:"queries"`
	Tolerance float32      `json:"tolerance"`
	Points    []ChurnPoint `json:"points"`
}

// Churn measures recall decay under FIFO eviction churn and the repair
// machinery's recovery of it. Every variant at a given churn multiple
// replays the identical Put stream and the identical query stream, so
// recall differences are attributable to graph-repair policy alone.
// Standalone (no Suite): the A/B needs no corpus, just geometry.
func Churn(opts ChurnOptions) (*ChurnResult, error) {
	opts.fillDefaults()
	if opts.Capacity < 1 {
		return nil, fmt.Errorf("experiments: capacity must be positive, got %d", opts.Capacity)
	}
	res := &ChurnResult{
		Capacity:  opts.Capacity,
		Dim:       opts.Dim,
		Queries:   opts.Queries,
		Tolerance: opts.Tolerance,
	}
	for _, mult := range opts.Mults {
		if mult < 1 {
			return nil, fmt.Errorf("experiments: churn multiple must be ≥ 1, got %d", mult)
		}
		point, err := churnPoint(mult, opts)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *point)
	}
	return res, nil
}

func churnPoint(mult int, opts ChurnOptions) (*ChurnPoint, error) {
	puts := mult * opts.Capacity
	rng := vec.NewRand(opts.Seed)
	keys := make([]vec.Vector, puts)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomGaussian(rng, opts.Dim), 2)
	}
	resident := keys[puts-opts.Capacity:] // FIFO: the last Capacity keys survive
	// Near-duplicate queries within τ of resident keys: the workload the
	// approximate cache exists to serve, and the one stale edges degrade.
	queries := make([]vec.Vector, opts.Queries)
	for i := range queries {
		base := resident[rng.IntN(len(resident))]
		dir := vec.RandomGaussian(rng, opts.Dim)
		dir = vec.Scale(dir, opts.Tolerance*0.8*float32(rng.Float64())/vec.Norm(dir))
		q := vec.Clone(base)
		for j := range q {
			q[j] += dir[j]
		}
		queries[i] = q
	}

	base := core.IndexedOptions{
		Capacity:  opts.Capacity,
		Tolerance: opts.Tolerance,
		Crossover: 1, // always the graph path: the scan would mask decay
		Seed:      opts.Seed + 2,
	}
	point := &ChurnPoint{Mult: mult, Puts: puts}

	unrepairedOpts := base
	unrepairedOpts.DisableInEdgeRepair = true
	v, err := churnVariant("unrepaired", unrepairedOpts, keys, resident, queries, opts)
	if err != nil {
		return nil, err
	}
	point.Unrepaired = *v

	if v, err = churnVariant("repaired", base, keys, resident, queries, opts); err != nil {
		return nil, err
	}
	point.Repaired = *v

	maintainedOpts := base
	maintainedOpts.Maintenance = &core.MaintenanceOptions{Every: opts.MaintEvery, Budget: opts.MaintBudget}
	if v, err = churnVariant("maintained", maintainedOpts, keys, resident, queries, opts); err != nil {
		return nil, err
	}
	point.Maintained = *v

	// The ceiling: a graph that has only ever seen the resident set.
	if v, err = churnVariant("fresh", base, resident, resident, queries, opts); err != nil {
		return nil, err
	}
	point.Fresh = *v

	if point.Fresh.SelfRecall > 0 {
		point.SelfRecallVsFresh = point.Maintained.SelfRecall / point.Fresh.SelfRecall
		point.UnrepairedVsFresh = point.Unrepaired.SelfRecall / point.Fresh.SelfRecall
	}
	if point.Unrepaired.PutMeanMicros > 0 {
		point.PutOverhead = point.Repaired.PutMeanMicros/point.Unrepaired.PutMeanMicros - 1
		point.MaintOverhead = point.Maintained.PutMeanMicros/point.Unrepaired.PutMeanMicros - 1
	}
	return point, nil
}

// churnVariant replays the Put stream into a fresh cache built from
// cacheOpts and measures recall and Put-path cost. The resident slice
// must be the stream's suffix that survives FIFO eviction; doc ids are
// stream positions, so self-recall demands the entry's own doc back.
func churnVariant(name string, cacheOpts core.IndexedOptions, stream, resident, queries []vec.Vector, opts ChurnOptions) (*ChurnVariant, error) {
	c, err := core.NewIndexed(opts.Dim, cacheOpts)
	if err != nil {
		return nil, err
	}
	var rec stats.LatencyRecorder
	firstDoc := len(stream) - len(resident)
	for i, k := range stream {
		start := time.Now()
		c.Put(k, []int{i})
		rec.Record(time.Since(start))
	}
	selfHits := 0
	for i, k := range resident {
		if docs, ok := c.Get(k); ok && len(docs) == 1 && docs[0] == firstDoc+i {
			selfHits++
		}
	}
	hits := 0
	for _, q := range queries {
		if _, ok := c.Get(q); ok {
			hits++
		}
	}
	is := c.Stats().Index
	return &ChurnVariant{
		Name:            name,
		SelfRecall:      float64(selfHits) / float64(len(resident)),
		HitRate:         float64(hits) / float64(len(queries)),
		PutMeanMicros:   float64(rec.Mean()) / float64(time.Microsecond),
		PutP99Micros:    float64(rec.Percentile(99)) / float64(time.Microsecond),
		MaintMillis:     float64(is.RepairNanos) / float64(time.Millisecond),
		ReusedSlots:     is.ReusedSlots,
		SeveredInEdges:  is.SeveredInEdges,
		ReroutedInEdges: is.ReroutedInEdges,
		RepairPasses:    is.RepairPasses,
		RepairedNodes:   is.RepairedNodes,
	}, nil
}

// WriteJSON writes the result as indented JSON — the BENCH_*.json
// trajectory format CI smoke-checks for well-formedness.
func (r *ChurnResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render formats the comparison, one block per churn multiple.
func (r *ChurnResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "churn recall A/B: unrepaired vs repaired vs maintained vs fresh rebuild (capacity=%d, dim=%d, τ=%v, %d queries)\n",
		r.Capacity, r.Dim, r.Tolerance, r.Queries)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "--- %d× capacity (%d puts) ---\n", p.Mult, p.Puts)
		fmt.Fprintf(&b, "%-12s %12s %10s %12s %12s %10s %12s\n",
			"variant", "self-recall", "hit rate", "put(µs)", "putP99(µs)", "maint(ms)", "repaired")
		for _, v := range []ChurnVariant{p.Unrepaired, p.Repaired, p.Maintained, p.Fresh} {
			fmt.Fprintf(&b, "%-12s %12.3f %10.3f %12.2f %12.2f %10.1f %12d\n",
				v.Name, v.SelfRecall, v.HitRate, v.PutMeanMicros, v.PutP99Micros, v.MaintMillis, v.RepairedNodes)
		}
		fmt.Fprintf(&b, "maintained/fresh self-recall %.3f (unrepaired %.3f); put overhead: tracking %+.1f%%, maintained %+.1f%%\n",
			p.SelfRecallVsFresh, p.UnrepairedVsFresh, 100*p.PutOverhead, 100*p.MaintOverhead)
	}
	return b.String()
}
