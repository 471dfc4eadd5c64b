package experiments

import (
	"fmt"
	"strings"
	"time"

	"proximity/internal/core"
	"proximity/internal/loadgen"
	"proximity/internal/rebalance"
	"proximity/internal/shard"
	"proximity/internal/vec"
	"proximity/internal/workload"
	"proximity/internal/zipf"
)

// RebalanceABOptions configures the static-vs-adaptive sharding
// comparison — the knobs proximity-bench exposes for
// `-experiment rebalance`.
type RebalanceABOptions struct {
	// Shards is the cache partition count. Defaults to 4.
	Shards int
	// Concurrency is the closed-loop worker count (0 = one per CPU).
	Concurrency int
	// Threshold is the controller's imbalance trigger. Defaults to 1.3.
	Threshold float64
	// SignatureBits is the partitioner's hyperplane count. The default
	// of 4 is deliberately coarse: 16 signatures over a handful of
	// shards is the regime where signature routing gets lumpy — whole
	// semantic clusters land on one signature, and which shard a
	// signature lands on is pure draw luck — so the draw matters and a
	// re-draw has room to win. (The sharded cache's own default of 10
	// bits spreads so finely that only heavy cluster skew imbalances
	// it.)
	//proximity:allow deadfield item 10 deletes this experiment
	SignatureBits int
	// MeasureFor is the target duration of each measurement phase; the
	// workload replays enough rounds to fill it, giving the adaptive
	// controller time to act mid-traffic. Defaults to 700ms.
	//proximity:allow deadfield item 10 deletes this experiment
	MeasureFor time.Duration
}

func (o *RebalanceABOptions) fillDefaults() {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Threshold == 0 {
		o.Threshold = 1.3
	}
	if o.SignatureBits <= 0 {
		o.SignatureBits = 4
	}
	if o.MeasureFor <= 0 {
		o.MeasureFor = 700 * time.Millisecond
	}
}

// RebalanceABResult reports the comparison: the same Zipf-skewed
// workload replayed against the same sharded cache configuration, once
// with the adversarial partitioner draw left alone and once with the
// adaptive rebalance controller running.
type RebalanceABResult struct {
	Shards int
	// StartSeed is the adversarial partitioner seed both passes start
	// from (the worst of the auditioned draws, so the skew is real).
	StartSeed uint64
	// Rounds is how many times the workload replays per measurement
	// phase.
	Rounds int

	Static   *loadgen.Report
	Adaptive *loadgen.Report
	// StaticPressure and AdaptivePressure are the post-measurement
	// shard reports; the headline is their Imbalance delta.
	StaticPressure   shard.PressureReport
	AdaptivePressure shard.PressureReport
	// Controller is the adaptive pass's rebalance-loop counters.
	Controller rebalance.Stats
}

// RebalanceAB measures what adaptive rebalancing buys under a skewed
// stream. The workload is Zipf-over-semantic-clusters — the trending-
// topics regime the shard imbalance problem actually lives in: members
// of one cluster sit close enough to share an LSH signature (so whole
// clusters land on one shard) but beyond τ of each other (so each
// member holds its own cache line). With only ~3 clusters per shard,
// which shard each cluster lands on is pure draw luck at any scale —
// the broad MedRAG-Zipf stream instead spreads entries finely enough
// that the law of large numbers balances every draw, which is exactly
// why it is the wrong probe here (the same reasoning that gave the
// batch comparison its own thundering-herd stream).
//
// Both passes shard a FLAT cache identically and start from the most
// imbalanced partitioner draw found among a fixed audition set — the
// adversarial-but-reproducible version of an unlucky deploy. Each pass
// replays the workload once to build the skew, then replays it for the
// measurement phase under concurrent load; the adaptive pass attaches
// the rebalance controller after the skew round (post-skew, as in a
// live deployment noticing a standing imbalance), so its re-draw
// migration happens mid-traffic. Capacity is sized to hold the unique
// queries: the cost of a hot shard is then its longer linear scan and
// its serialized lock, which is exactly what the re-draw spreads (with
// capacity pressure instead, every shard eventually pins at its
// capacity and the entry-count signal saturates).
func (s *Suite) RebalanceAB(opts RebalanceABOptions) (*RebalanceABResult, error) {
	opts.fillDefaults()
	_, _, db, err := s.MedRAG()
	if err != nil {
		return nil, err
	}

	// Clustered unique pool, sized from the suite config.
	clusters := 3 * opts.Shards
	uniqueN := s.cfg.ZipfTotal / 8
	if uniqueN < 6*clusters {
		uniqueN = 6 * clusters
	}
	if uniqueN > 1024 {
		uniqueN = 1024
	}
	perCluster := (uniqueN + clusters - 1) / clusters
	rng := vec.NewRand(6000)
	var uniques []vec.Vector
	memberOf := make([][]int, clusters) // cluster -> unique indices
	for c := 0; c < clusters; c++ {
		center := vec.RandomGaussian(rng, s.cfg.Dim)
		for m := 0; m < perCluster; m++ {
			q := vec.Clone(center)
			jitter := vec.RandomGaussian(rng, s.cfg.Dim)
			for d := range q {
				q[d] += 0.12 * jitter[d]
			}
			memberOf[c] = append(memberOf[c], len(uniques))
			uniques = append(uniques, q)
		}
	}

	// Zipf popularity ACROSS clusters, uniform within: trending topics.
	zf, err := zipf.NewSampler(vec.NewRand(6001), clusters, s.cfg.ZipfExponent)
	if err != nil {
		return nil, err
	}
	pick := vec.NewRand(6002)
	w := workload.Workload{Name: "zipf-clusters"}
	for i := 0; i < s.cfg.ZipfTotal; i++ {
		members := memberOf[zf.Next()]
		w.Queries = append(w.Queries, workload.Query{
			Embedding: uniques[members[pick.IntN(len(members))]],
			Question:  i,
		})
	}
	capacity := 2 * len(uniques)

	perShard := (capacity + opts.Shards - 1) / opts.Shards
	newCache := func(seed uint64) (*shard.ShardedCache, error) {
		return shard.New(s.cfg.Dim, shard.Options{
			Shards:        opts.Shards,
			Seed:          seed,
			SignatureBits: opts.SignatureBits,
			New: func(int) (core.Cache, error) {
				return core.NewFlat(s.cfg.Dim, core.Options{
					Capacity: perShard,
					// τ below the intra-cluster spacing: exact repeats
					// hit, distinct members each keep their own line.
					Tolerance: 1,
					Policy:    core.LRU,
				})
			},
		})
	}

	// Audition a fixed set of draws against the unique queries and
	// start BOTH passes from the worst: a reproducible unlucky deploy.
	worstSeed, err := s.worstSeed(newCache, uniques, 16)
	if err != nil {
		return nil, err
	}

	res := &RebalanceABResult{Shards: opts.Shards, StartSeed: worstSeed}

	run := func(adaptive bool, rounds int) (*loadgen.Report, shard.PressureReport, error) {
		cache, err := newCache(worstSeed)
		if err != nil {
			return nil, shard.PressureReport{}, err
		}
		retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: 4})
		if err != nil {
			return nil, shard.PressureReport{}, err
		}
		target, err := loadgen.NewRetrieverTarget(retr)
		if err != nil {
			return nil, shard.PressureReport{}, err
		}

		// Skew-building round: fills the cache through the miss path so
		// the adversarial draw's concentration is standing state.
		if _, err := loadgen.Run(target, w, loadgen.Options{
			Mode:    loadgen.ClosedLoop,
			Workers: opts.Concurrency,
			Seed:    3000,
		}); err != nil {
			return nil, shard.PressureReport{}, fmt.Errorf("skew round: %w", err)
		}

		// The controller attaches POST-skew — a live deployment noticing
		// a standing imbalance — so its re-draw happens during the
		// measurement traffic below, never against a half-filled cache.
		var ctrl *rebalance.Controller
		if adaptive {
			st, err := rebalance.NewShardTarget(cache, rebalance.ShardTargetOptions{Candidates: 12})
			if err != nil {
				return nil, shard.PressureReport{}, err
			}
			ctrl, err = rebalance.New(st, st, rebalance.Options{
				Threshold:  opts.Threshold,
				Interval:   5 * time.Millisecond,
				Window:     -1, // the skew is standing; act on the first breach
				Cooldown:   opts.MeasureFor / 2,
				MinEntries: 32,
			})
			if err != nil {
				return nil, shard.PressureReport{}, err
			}
			if err := ctrl.Start(); err != nil {
				return nil, shard.PressureReport{}, err
			}
			defer func() { _ = ctrl.Close() }()
		}

		// Measurement phase: enough rounds that the adaptive pass's
		// controller fires (and migrates) while traffic is in flight.
		big := workload.Workload{Name: w.Name + "-x" + fmt.Sprint(rounds)}
		for r := 0; r < rounds; r++ {
			big.Queries = append(big.Queries, w.Queries...)
		}
		rep, err := loadgen.Run(target, big, loadgen.Options{
			Mode:    loadgen.ClosedLoop,
			Workers: opts.Concurrency,
			Seed:    3000,
		})
		if err != nil {
			return nil, shard.PressureReport{}, err
		}
		if adaptive {
			res.Controller = ctrl.Stats()
		}
		return rep, cache.Report(), nil
	}

	// Calibrate the round count on a single static round so both passes
	// measure the same offered work for roughly MeasureFor.
	probe, _, err := run(false, 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: calibration round: %w", err)
	}
	rounds := 1
	if probe.Elapsed > 0 {
		rounds = int(opts.MeasureFor / probe.Elapsed)
	}
	if rounds < 2 {
		rounds = 2
	}
	if rounds > 256 {
		rounds = 256
	}
	res.Rounds = rounds

	if res.Static, res.StaticPressure, err = run(false, rounds); err != nil {
		return nil, fmt.Errorf("experiments: static pass: %w", err)
	}
	if res.Adaptive, res.AdaptivePressure, err = run(true, rounds); err != nil {
		return nil, fmt.Errorf("experiments: adaptive pass: %w", err)
	}
	return res, nil
}

// worstSeed auditions candidate partitioner seeds over the unique
// queries and returns the most imbalanced draw. It reuses the live
// preview machinery: a probe cache is filled once, then each candidate
// is scored with PreviewSeed against those contents.
func (s *Suite) worstSeed(newCache func(uint64) (*shard.ShardedCache, error), uniques []vec.Vector, candidates int) (uint64, error) {
	base := uint64(2000)
	probe, err := newCache(base)
	if err != nil {
		return 0, err
	}
	for _, q := range uniques {
		probe.Put(q, nil)
	}
	worst, worstImb := base, probe.Report().Imbalance
	for i := 0; i < candidates; i++ {
		seed := base + 1 + uint64(i)
		imb, err := probe.PreviewSeed(seed)
		if err != nil {
			return 0, err
		}
		if imb > worstImb {
			worst, worstImb = seed, imb
		}
	}
	return worst, nil
}

// Render formats the comparison with the headline imbalance and tail-
// latency deltas.
func (r *RebalanceABResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adaptive shard rebalancing A/B (%d shards, adversarial seed %d, %d measurement rounds)\n",
		r.Shards, r.StartSeed, r.Rounds)
	b.WriteString("--- static (no controller) ---\n")
	b.WriteString(r.Static.Render())
	b.WriteString(r.StaticPressure.Render())
	b.WriteString("--- adaptive (controller on) ---\n")
	b.WriteString(r.Adaptive.Render())
	b.WriteString(r.AdaptivePressure.Render())
	fmt.Fprintf(&b, "controller: %d samples, %d breaches, %d rebalances (%d declined, %d failed)",
		r.Controller.Samples, r.Controller.Breaches, r.Controller.Rebalances,
		r.Controller.Declined, r.Controller.Failures)
	if r.Controller.Rebalances > 0 {
		fmt.Fprintf(&b, "; last: %s", r.Controller.LastOutcome.Detail)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "imbalance %.2f -> %.2f", r.StaticPressure.Imbalance, r.AdaptivePressure.Imbalance)
	sp99, ap99 := r.Static.P99, r.Adaptive.P99
	fmt.Fprintf(&b, "; p99 %v -> %v", sp99.Round(time.Microsecond), ap99.Round(time.Microsecond))
	if sp99 > 0 {
		fmt.Fprintf(&b, " (%+.1f%%)", 100*(float64(ap99)-float64(sp99))/float64(sp99))
	}
	fmt.Fprintf(&b, "; failed queries during migration: %d\n", r.Adaptive.Errors)
	return b.String()
}
