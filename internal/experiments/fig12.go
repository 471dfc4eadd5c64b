package experiments

import (
	"fmt"
	"strings"

	"proximity/internal/core"
	"proximity/internal/metrics"
	"proximity/internal/report"
	"proximity/internal/workload"
)

// Fig12Result reproduces Fig. 12: hit rate and database k-recall of
// Proximity-LSH (L=8, LRU) replaying the TripClick log against the
// PubMed-sim corpus served by the Vamana (DiskANN-sim) index, across
// small tolerances. The paper reports a stable ≈50% hit rate with recall
// degrading from 99.4% (τ=1.0) to 92.2% (τ=2.5).
type Fig12Result struct {
	Taus      []float64
	HitRate   []float64
	Recall    []float64
	Queries   int
	Unique    int
	IndexSize int
}

// Fig12TripClick runs the sweep. A single replay per tolerance (the log
// itself is the randomness, as in the paper).
func (s *Suite) Fig12TripClick() (*Fig12Result, error) {
	log, ix, err := s.TripClick()
	if err != nil {
		return nil, err
	}
	w := workload.FromTripClick(log)
	taus := []float64{1.0, 1.5, 2.0, 2.5}
	res := &Fig12Result{
		Taus:      taus,
		HitRate:   make([]float64, len(taus)),
		Recall:    make([]float64, len(taus)),
		Queries:   w.Len(),
		Unique:    len(log.Bench.Questions),
		IndexSize: ix.Len(),
	}
	err = s.parallelFor(len(taus), func(i int) error {
		cache, err := core.NewLSH(s.cfg.Dim, core.LSHOptions{
			Bits:           8,
			BucketCapacity: core.DefaultBucketCapacity,
			Tolerance:      float32(taus[i]),
			Policy:         core.LRU,
			Seed:           41,
		})
		if err != nil {
			return err
		}
		var agg metrics.Aggregate
		run, err := s.run(runSpec{
			bench:         log.Bench,
			db:            ix,
			w:             w,
			cache:         cache,
			k:             log.Bench.DefaultK,
			rerank:        1,
			measureRecall: true,
		})
		if err != nil {
			return fmt.Errorf("experiments: fig12 τ=%v: %w", taus[i], err)
		}
		agg.Add(run)
		res.HitRate[i] = agg.HitRate()
		res.Recall[i] = agg.Recall()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the sweep.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: TripClick replay (%d queries, %d unique) over DiskANN-sim (%d vectors), LSH L=8, LRU\n\n",
		r.Queries, r.Unique, r.IndexSize)
	tbl := report.NewTable("", "tau", "hit rate [%]", "db recall [%]")
	for i, tau := range r.Taus {
		tbl.AddRow(trimFloat(tau), report.Percent(r.HitRate[i]), report.Percent(r.Recall[i]))
	}
	b.WriteString(tbl.String())
	return b.String()
}
