package experiments

import (
	"fmt"
	"strings"

	"proximity/internal/core"
	"proximity/internal/metrics"
	"proximity/internal/report"
	"proximity/internal/vectordb"
)

// AblationResult compares three of the paper's design extensions, all on
// the MedRAG-Zipf workload:
//
//   - single-probe vs multi-probe LSH lookups (the §3.2 extension:
//     probing Hamming-adjacent buckets recovers rephrasings that fell on
//     the far side of a hyperplane);
//   - global tolerance vs the per-line dynamic tolerance of Frieder et
//     al. (§3.3.3);
//   - re-ranking factor ρ=1 vs ρ=4 (§3.3.4: over-fetching protects
//     k-recall on approximate hits).
type AblationResult struct {
	Seeds int
	Rows  []AblationRow
}

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Name    string
	HitRate float64
	Recall  float64
	Acc     float64
}

// ExtensionsAblation runs the comparison matrix.
func (s *Suite) ExtensionsAblation() (*AblationResult, error) {
	full, _, db, err := s.MedRAG()
	if err != nil {
		return nil, err
	}
	source, ok := db.(vectordb.VectorSource)
	if !ok {
		return nil, fmt.Errorf("experiments: ablation database does not expose vectors")
	}

	// τ=5 sits in the variant-matching regime: strict enough that
	// bucket boundaries and re-ranking actually matter.
	const tau = 5

	type config struct {
		name    string
		probes  int
		dynamic float64
		rerank  int
	}
	configs := []config{
		{name: "lsh ρ=4 single-probe", probes: 1, rerank: s.cfg.ZipfRerank},
		{name: "lsh ρ=4 multi-probe", probes: 9, rerank: s.cfg.ZipfRerank},
		{name: "lsh ρ=1 single-probe", probes: 1, rerank: 1},
		// κ = 1.2: the paper notes (§3.3.3) that Frieder-style dynamic
		// tolerances "still required some arbitrary hand-tuning" — κ
		// is exactly that knob.
		{name: "lsh ρ=4 dynamic-τ", probes: 1, dynamic: 1.2, rerank: s.cfg.ZipfRerank},
	}

	res := &AblationResult{Seeds: s.cfg.Seeds, Rows: make([]AblationRow, len(configs))}
	err = s.parallelFor(len(configs), func(i int) error {
		cfg := configs[i]
		var agg metrics.Aggregate
		for _, seed := range s.seeds() {
			w, err := s.zipfWorkload(seed)
			if err != nil {
				return err
			}
			cache, err := core.NewLSH(s.cfg.Dim, core.LSHOptions{
				Bits:           8,
				BucketCapacity: core.DefaultBucketCapacity,
				Tolerance:      tau,
				Policy:         core.LRU,
				Seed:           seed,
				Probes:         cfg.probes,
			})
			if err != nil {
				return err
			}
			run, err := s.run(runSpec{
				bench:            full,
				db:               db,
				w:                w,
				cache:            cache,
				k:                full.DefaultK,
				rerank:           cfg.rerank,
				source:           source,
				answerSeed:       seed,
				measureRecall:    true,
				answer:           true,
				dynamicTolerance: cfg.dynamic,
			})
			if err != nil {
				return fmt.Errorf("experiments: ablation %s: %w", cfg.name, err)
			}
			agg.Add(run)
		}
		res.Rows[i] = AblationRow{
			Name:    cfg.name,
			HitRate: agg.HitRate(),
			Recall:  agg.Recall(),
			Acc:     agg.Accuracy(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the comparison.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension ablations, MedRAG-Zipf, LSH L=8 b=20 LRU τ=5, %d seed(s)\n\n", r.Seeds)
	tbl := report.NewTable("", "config", "hit rate [%]", "recall [%]", "accuracy [%]")
	for _, row := range r.Rows {
		tbl.AddRow(row.Name, report.Percent(row.HitRate), report.Percent(row.Recall), report.Percent(row.Acc))
	}
	b.WriteString(tbl.String())
	return b.String()
}
