// Command proximity-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	proximity-bench [-quick] [-seeds N] [-experiment LIST]
//	proximity-bench -experiment rebalance [-shards N] [-concurrency K]
//	    [-rebalance-threshold T]
//	proximity-bench -experiment annindex [-entries N,M] [-ann-queries Q]
//	    [-ann-ef E1,E2] [-bench-out PATH]
//	proximity-bench -experiment overhead [-overhead-iters N]
//	    [-overhead-rounds R] [-bench-out PATH]
//	proximity-bench -experiment churn [-churn-capacity N] [-churn-mults M1,M2]
//	    [-churn-queries Q] [-bench-out PATH]
//	proximity-bench -experiment tiered [-tier-hot N] [-tier-ratios R1,R2]
//	    [-tier-queries Q] [-tier-dim D] [-bench-out PATH]
//
// where LIST is a comma-separated subset of
// fig2,fig3,fig6-mmlu,fig6-medrag,fig7,fig8,fig9,fig10,fig11,fig12,opcount,
// rebalance,annindex,overhead,churn,tiered or "all" (default: every
// figure; rebalance, annindex, overhead, churn, and tiered run only when
// named).
// Results print to stdout; redirect to a file to keep them. The -quick
// flag switches to the CI-sized configuration.
//
// The rebalance experiment A/B-tests adaptive shard rebalancing: the
// same Zipf-skewed stream against the same sharded cache starting from
// an adversarially imbalanced partitioner draw, once static and once
// with the rebalance controller re-drawing the partitioner mid-traffic,
// reporting p95/p99, post-skew imbalance, and migration safety (zero
// failed queries).
//
// The annindex experiment A/B-tests the cache lookup structures head to
// head — flat scan vs LSH buckets vs the graph-indexed cache — at the
// entry counts given by -entries, replaying an identical query stream
// against identically filled caches. It prints the comparison and writes
// the machine-readable result to -bench-out (default BENCH_annindex.json).
//
// The overhead experiment measures the telemetry layer's cost on the
// cached-hit path three ways — no hub, hub with sampling off (the
// production default, promised ≲1%), and every request traced — and
// writes the result to -bench-out (default BENCH_telemetry.json).
//
// The churn experiment measures graph-recall decay under FIFO eviction
// churn and its repair: the same Put stream replayed with in-edge repair
// disabled, enabled, and enabled plus scheduled maintenance, each scored
// against a freshly rebuilt graph over the identical resident set. It
// writes the result to -bench-out (default BENCH_churn.json).
//
// The tiered experiment A/B-tests the hot/warm cache hierarchy against a
// single-tier FLAT cache of the same hot capacity at the hot:warm ratios
// given by -tier-ratios: hit-rate uplift from the retained warm history,
// hot-path latency tax, warm pruning effectiveness, and hit-rate
// recovery across a snapshot-restore restart. It writes the result to
// -bench-out (default BENCH_tiered.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"proximity/internal/core"
	"proximity/internal/experiments"
)

// renderer is the common shape of every figure harness.
type renderer interface{ Render() string }

// figure pairs a name with its harness invocation.
type figure struct {
	name string
	run  func(*experiments.Suite) (renderer, error)
}

var figures = []figure{
	{"fig2", func(s *experiments.Suite) (renderer, error) { return s.Fig2QuerySkew() }},
	{"fig3", func(s *experiments.Suite) (renderer, error) { return s.Fig3EmbeddingClusters() }},
	{"fig6-mmlu", func(s *experiments.Suite) (renderer, error) { return s.Fig6FlatGrid("mmlu") }},
	{"fig6-medrag", func(s *experiments.Suite) (renderer, error) { return s.Fig6FlatGrid("medrag") }},
	{"fig7", func(s *experiments.Suite) (renderer, error) { return s.Fig7ZipfPolicies() }},
	{"fig8", func(s *experiments.Suite) (renderer, error) { return s.Fig8BucketSize() }},
	{"fig9", func(s *experiments.Suite) (renderer, error) { return s.Fig9Occupancy() }},
	{"fig10", func(s *experiments.Suite) (renderer, error) { return s.Fig10LookupScaling() }},
	{"fig11", func(s *experiments.Suite) (renderer, error) { return s.Fig11LookupParams() }},
	{"fig12", func(s *experiments.Suite) (renderer, error) { return s.Fig12TripClick() }},
	{"opcount", func(s *experiments.Suite) (renderer, error) { return s.OpCountAblation() }},
	{"ablation", func(s *experiments.Suite) (renderer, error) { return s.ExtensionsAblation() }},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "proximity-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("proximity-bench", flag.ContinueOnError)
	var (
		quick        = fs.Bool("quick", false, "use the CI-sized configuration")
		seeds        = fs.Int("seeds", 0, "override the number of averaged seeds")
		dim          = fs.Int("dim", 0, "override the embedding dimensionality")
		parallel     = fs.Int("parallel", 0, "override grid-cell parallelism")
		which        = fs.String("experiment", "all", "comma-separated figures to run, or 'all'")
		list         = fs.Bool("list", false, "list available experiments and exit")
		shards       = fs.Int("shards", 0, "rebalance: cache shard count (0 = one per CPU)")
		concurrency  = fs.Int("concurrency", 0, "rebalance: closed-loop workers (0 = one per CPU)")
		rebThresh    = fs.Float64("rebalance-threshold", 0, "rebalance: controller imbalance trigger (0 = default)")
		entries      = fs.String("entries", "", "annindex: comma-separated resident-entry counts (default 100000)")
		annQueries   = fs.Int("ann-queries", 0, "annindex: lookups per variant (0 = default)")
		annEf        = fs.String("ann-ef", "", "annindex: comma-separated beam widths to sweep (default 64,128,256)")
		benchOut     = fs.String("bench-out", "", "output path for the machine-readable JSON result (annindex defaults to BENCH_annindex.json, overhead to BENCH_telemetry.json, churn to BENCH_churn.json, tiered to BENCH_tiered.json)")
		ovIters      = fs.Int("overhead-iters", 0, "overhead: cached-hit retrievals per timed round (0 = default)")
		ovRounds     = fs.Int("overhead-rounds", 0, "overhead: timed rounds per configuration (0 = default)")
		churnCap     = fs.Int("churn-capacity", 0, "churn: cache capacity under eviction churn (0 = default 2000)")
		churnMults   = fs.String("churn-mults", "", "churn: comma-separated churn multiples (default 1,2,5)")
		churnQueries = fs.Int("churn-queries", 0, "churn: near-duplicate lookups per variant (0 = default)")
		tierHot      = fs.Int("tier-hot", 0, "tiered: hot-tier / single-tier baseline capacity (0 = default 1000)")
		tierRatios   = fs.String("tier-ratios", "", "tiered: comma-separated warm:hot ratios (default 4,16)")
		tierQueries  = fs.Int("tier-queries", 0, "tiered: lookups per query path per variant (0 = default)")
		tierDim      = fs.Int("tier-dim", 0, "tiered: embedding dimensionality (0 = default 768)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	available := append([]figure{}, figures...)
	available = append(available, figure{"overhead", func(s *experiments.Suite) (renderer, error) {
		res, err := experiments.TelemetryOverhead(experiments.TelemetryOverheadOptions{
			Iters:  *ovIters,
			Rounds: *ovRounds,
		})
		if err != nil {
			return nil, err
		}
		out := *benchOut
		if out == "" {
			out = "BENCH_telemetry.json"
		}
		if err := writeBenchJSON(out, res); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", out)
		return res, nil
	}})
	available = append(available, figure{"rebalance", func(s *experiments.Suite) (renderer, error) {
		return s.RebalanceAB(experiments.RebalanceABOptions{
			Shards:      *shards,
			Concurrency: *concurrency,
			Threshold:   *rebThresh,
		})
	}})
	available = append(available, figure{"churn", func(s *experiments.Suite) (renderer, error) {
		mults, err := parseEntryCounts("churn-mults", *churnMults)
		if err != nil {
			return nil, err
		}
		res, err := experiments.Churn(experiments.ChurnOptions{
			Capacity: *churnCap,
			Mults:    mults,
			Queries:  *churnQueries,
		})
		if err != nil {
			return nil, err
		}
		out := *benchOut
		if out == "" {
			out = "BENCH_churn.json"
		}
		if err := writeBenchJSON(out, res); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", out)
		return res, nil
	}})
	available = append(available, figure{"tiered", func(s *experiments.Suite) (renderer, error) {
		ratios, err := parseEntryCounts("tier-ratios", *tierRatios)
		if err != nil {
			return nil, err
		}
		res, err := experiments.Tiered(experiments.TieredOptions{
			Hot:     *tierHot,
			Ratios:  ratios,
			Dim:     *tierDim,
			Queries: *tierQueries,
		})
		if err != nil {
			return nil, err
		}
		out := *benchOut
		if out == "" {
			out = "BENCH_tiered.json"
		}
		if err := writeBenchJSON(out, res); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", out)
		return res, nil
	}})
	available = append(available, figure{"annindex", func(s *experiments.Suite) (renderer, error) {
		counts, err := parseEntryCounts("entries", *entries)
		if err != nil {
			return nil, err
		}
		if *quick && counts == nil {
			counts = []int{5000}
		}
		sweep, err := parseEntryCounts("ann-ef", *annEf)
		if err != nil {
			return nil, err
		}
		res, err := experiments.ANNIndex(experiments.ANNIndexOptions{
			Entries: counts,
			Queries: *annQueries,
			EfSweep: sweep,
		})
		if err != nil {
			return nil, err
		}
		out := *benchOut
		if out == "" {
			out = "BENCH_annindex.json"
		}
		if err := writeBenchJSON(out, res); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", out)
		return res, nil
	}})
	if *list {
		for _, f := range available {
			fmt.Println(f.name)
		}
		return nil
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}
	if *dim > 0 {
		cfg.Dim = *dim
	}
	if *parallel > 0 {
		cfg.Parallelism = *parallel
	}
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return err
	}

	selected, err := selectFigures(*which, available)
	if err != nil {
		return err
	}
	for _, f := range selected {
		start := time.Now()
		fmt.Printf("==> %s\n", f.name)
		res, err := f.run(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		fmt.Println(res.Render())
		fmt.Printf("(%s finished in %v)\n\n", f.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// parseEntryCounts turns "100000,1000000", the value of flag -name, into
// positive counts; an empty string defers to the experiment's default.
func parseEntryCounts(name, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -%s value %q", name, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeBenchJSON persists an experiment result as a BENCH_*.json
// artifact, atomically: plot scripts and CI consumers may read the path
// while a rerun is in flight, and must never see a torn file.
func writeBenchJSON(path string, res interface{ WriteJSON(io.Writer) error }) error {
	return core.WriteFileAtomic(path, res.WriteJSON)
}

// selectFigures resolves the -experiment list against the available set.
// "all" covers every paper figure; the other experiments (rebalance,
// annindex, overhead, churn, tiered) run only when named, since their
// runtime depends on their own flags rather than the suite.
func selectFigures(which string, available []figure) ([]figure, error) {
	if which == "all" {
		return figures, nil
	}
	byName := make(map[string]figure, len(available))
	for _, f := range available {
		byName[f.name] = f
	}
	var out []figure
	for _, name := range strings.Split(which, ",") {
		name = strings.TrimSpace(name)
		f, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", name)
		}
		out = append(out, f)
	}
	return out, nil
}
