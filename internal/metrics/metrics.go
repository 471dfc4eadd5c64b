// Package metrics implements the paper's evaluation metrics (§4.2.4):
// test accuracy, cache hit rate, retrieval latency, and database k-recall
// — plus the across-seed aggregation used to average the five runs the
// paper reports.
package metrics

import (
	"fmt"
	"time"

	"proximity/internal/stats"
)

// Recall returns the database k-recall of a cache answer: the fraction of
// the documents the database would have returned that the cache actually
// returned (§4.2.4). Both slices are top-k ID lists; an empty ground
// truth yields recall 1 (nothing to recover).
func Recall(got, truth []int) float64 {
	if len(truth) == 0 {
		return 1
	}
	want := make(map[int]struct{}, len(truth))
	for _, id := range truth {
		want[id] = struct{}{}
	}
	found := 0
	for _, id := range got {
		if _, ok := want[id]; ok {
			found++
		}
	}
	return float64(found) / float64(len(truth))
}

// Run accumulates the outcome of one workload execution.
type Run struct {
	// Name labels the configuration (e.g. "flat τ=5 c=100").
	Name string

	queries   int
	hits      int
	dbCalls   int
	answered  int
	correct   int
	recallSum float64
	recallN   int

	cacheTime     stats.LatencyRecorder
	retrievalTime stats.LatencyRecorder
}

// RecordRetrieval folds in one query's retrieval outcome.
func (r *Run) RecordRetrieval(hit bool, cacheTime, totalTime time.Duration) {
	r.queries++
	if hit {
		r.hits++
	} else {
		r.dbCalls++
	}
	r.cacheTime.Record(cacheTime)
	r.retrievalTime.Record(totalTime)
}

// RecordAnswer folds in one query's answer correctness.
func (r *Run) RecordAnswer(correct bool) {
	r.answered++
	if correct {
		r.correct++
	}
}

// RecordRecall folds in one query's database k-recall.
func (r *Run) RecordRecall(recall float64) {
	r.recallSum += recall
	r.recallN++
}

// DBCalls returns the number of database lookups (misses).
func (r *Run) DBCalls() int { return r.dbCalls }

// HitRate returns hits / queries (0 before any query).
func (r *Run) HitRate() float64 {
	if r.queries == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.queries)
}

// Accuracy returns the fraction of correctly answered questions.
func (r *Run) Accuracy() float64 {
	if r.answered == 0 {
		return 0
	}
	return float64(r.correct) / float64(r.answered)
}

// MeanRecall returns the average database k-recall.
func (r *Run) MeanRecall() float64 {
	if r.recallN == 0 {
		return 0
	}
	return r.recallSum / float64(r.recallN)
}

// MeanRetrieval returns the mean end-to-end retrieval latency (cache +
// database), the Fig. 6c / Fig. 7d quantity.
func (r *Run) MeanRetrieval() time.Duration { return r.retrievalTime.Mean() }

// MeanCacheLookup returns the mean time spent inside the cache, the
// Fig. 10/11 quantity.
func (r *Run) MeanCacheLookup() time.Duration { return r.cacheTime.Mean() }

// String summarizes the run.
func (r *Run) String() string {
	return fmt.Sprintf("%s: queries=%d hit=%.1f%% acc=%.1f%% recall=%.1f%% retr=%v",
		r.Name, r.queries, 100*r.HitRate(), 100*r.Accuracy(), 100*r.MeanRecall(), r.MeanRetrieval())
}

// Aggregate averages a metric across seeded runs, as the paper does over
// five seeds.
type Aggregate struct {
	hitRate   stats.Welford
	accuracy  stats.Welford
	recall    stats.Welford
	retrieval stats.Welford // nanoseconds
}

// Add folds one run into the aggregate.
func (a *Aggregate) Add(r *Run) {
	a.hitRate.Add(r.HitRate())
	a.accuracy.Add(r.Accuracy())
	a.recall.Add(r.MeanRecall())
	a.retrieval.Add(float64(r.MeanRetrieval()))
}

// HitRate returns the mean hit rate across runs.
func (a *Aggregate) HitRate() float64 { return a.hitRate.Mean() }

// Accuracy returns the mean accuracy across runs.
func (a *Aggregate) Accuracy() float64 { return a.accuracy.Mean() }

// Recall returns the mean database k-recall across runs.
func (a *Aggregate) Recall() float64 { return a.recall.Mean() }

// MeanRetrieval returns the mean retrieval latency across runs.
func (a *Aggregate) MeanRetrieval() time.Duration {
	return time.Duration(a.retrieval.Mean())
}
