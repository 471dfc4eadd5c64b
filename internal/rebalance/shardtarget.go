package rebalance

import (
	"fmt"
	"math"
	"sync/atomic"

	"proximity/internal/shard"
)

// Shard-target defaults.
const (
	// DefaultCandidates is the number of fresh partitioner seeds
	// auditioned per action.
	DefaultCandidates = 8
	// DefaultMinGain is the minimum relative predicted improvement
	// required before committing a migration: the best candidate's
	// predicted imbalance must be at most (1 - MinGain) of the current
	// one. Re-draws below this bar are not worth the transient misses.
	DefaultMinGain = 0.05
)

// ShardTargetOptions tunes a ShardTarget.
type ShardTargetOptions struct {
	// Candidates is the number of fresh seeds auditioned per action.
	// Defaults to DefaultCandidates.
	Candidates int
	// MinGain is the minimum relative predicted improvement required to
	// migrate. Defaults to DefaultMinGain; pass a negative value for an
	// explicit zero bar.
	MinGain float64
}

func (o *ShardTargetOptions) fillDefaults() {
	if o.Candidates <= 0 {
		o.Candidates = DefaultCandidates
	}
	if o.MinGain == 0 {
		o.MinGain = DefaultMinGain
	} else if o.MinGain < 0 {
		o.MinGain = 0
	}
}

// ShardTarget adapts a shard.ShardedCache to the controller: Sample
// reads the pressure report, and Rebalance auditions candidate
// partitioner seeds against the live contents (PreviewSeed), committing
// the best one via the shard-by-shard Reseed migration — or declining
// when no candidate clears the MinGain bar, so the controller's cooldown
// absorbs unfixable skew (e.g. one genuinely hot semantic cluster that
// every hyperplane draw maps to a single signature).
type ShardTarget struct {
	cache *shard.ShardedCache
	opts  ShardTargetOptions
	// cursor walks a deterministic candidate-seed sequence starting
	// after the construction seed, so a fixed setup auditions the same
	// draws in the same order (reproducible experiments).
	cursor atomic.Uint64
}

var (
	_ Source   = (*ShardTarget)(nil)
	_ Actuator = (*ShardTarget)(nil)
)

// NewShardTarget wires a re-draw actuator over the cache.
func NewShardTarget(cache *shard.ShardedCache, opts ShardTargetOptions) (*ShardTarget, error) {
	if cache == nil {
		return nil, fmt.Errorf("rebalance: a sharded cache is required")
	}
	opts.fillDefaults()
	t := &ShardTarget{cache: cache, opts: opts}
	t.cursor.Store(cache.Seed())
	return t, nil
}

// Cache returns the wrapped sharded cache.
func (t *ShardTarget) Cache() *shard.ShardedCache { return t.cache }

// Sample implements Source from the pressure report.
func (t *ShardTarget) Sample() Sample {
	r := t.cache.Report()
	return Sample{Imbalance: r.Imbalance, Entries: r.Entries}
}

// Rebalance implements Actuator: audition Candidates fresh seeds, commit
// the best predicted draw if it clears the MinGain bar, decline
// otherwise.
func (t *ShardTarget) Rebalance(Sample) (Outcome, error) {
	// Re-measure rather than trusting the trigger sample: the breach
	// window means the trigger is at least one interval old.
	current := t.cache.Report().Imbalance
	seeds := make([]uint64, t.opts.Candidates)
	for i := range seeds {
		seeds[i] = t.cursor.Add(1)
	}
	// One contents snapshot scores the whole candidate set.
	preds, err := t.cache.PreviewSeeds(seeds)
	if err != nil {
		return Outcome{}, err
	}
	bestPred := current
	bestSeen := math.Inf(1) // best candidate even when it beats nothing
	var bestSeed uint64
	found := false
	for i, pred := range preds {
		if pred < bestSeen {
			bestSeen = pred
		}
		if pred < bestPred {
			bestSeed, bestPred, found = seeds[i], pred, true
		}
	}
	if !found || bestPred > current*(1-t.opts.MinGain) {
		return Outcome{
			Before: current,
			After:  current,
			Detail: fmt.Sprintf("declined: no draw beat imbalance %.2f by %.0f%% over %d candidates (best candidate predicted %.2f)",
				current, 100*t.opts.MinGain, t.opts.Candidates, bestSeen),
		}, nil
	}
	m, err := t.cache.Reseed(bestSeed)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Acted:  true,
		Before: m.Before,
		After:  m.After,
		Moved:  m.Moved,
		Detail: m.String(),
	}, nil
}
