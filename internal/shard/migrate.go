package shard

import (
	"errors"
	"fmt"
	"io"
	"time"

	"proximity/internal/core"
	"proximity/internal/lsh"
	"proximity/internal/vec"
)

// ErrMigrationInProgress reports a Reseed overlapping another migration
// or a Clear; at most one structural operation runs at a time, so a
// caller (the rebalance controller, the server's admin endpoint) can
// try again later.
var ErrMigrationInProgress = errors.New("shard: a migration or clear is already in progress")

// Migration summarizes one completed signature re-draw.
type Migration struct {
	// Seed is the re-drawn partitioner seed now in effect.
	Seed uint64
	// Moved and Stayed count entries that changed shards vs. entries
	// re-homed in place.
	Moved  int
	Stayed int
	// Before and After are the pressure report's Imbalance on either
	// side of the migration (After is sampled immediately after the
	// last shard settles, so concurrent traffic is included).
	Before float64
	After  float64
	// Elapsed is the wall-clock migration time.
	Elapsed time.Duration
}

// String renders the one-line summary the server log and examples print.
func (m Migration) String() string {
	return fmt.Sprintf("reseed(seed=%d): imbalance %.2f -> %.2f, moved %d/%d entries in %v",
		m.Seed, m.Before, m.After, m.Moved, m.Moved+m.Stayed, m.Elapsed.Round(time.Microsecond))
}

// PreviewSeed predicts the Imbalance the current contents would have
// under a candidate partitioner seed, without touching routing state.
// Cost is O(entries · (dim + bits·dim)).
func (c *ShardedCache) PreviewSeed(seed uint64) (float64, error) {
	out, err := c.PreviewSeeds([]uint64{seed})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// PreviewSeeds scores several candidate seeds against ONE snapshot of
// the current keys, returning the predicted Imbalance per seed
// (parallel to the input). The rebalance controller auditions its whole
// candidate set this way and migrates only to the best draw — a re-draw
// is a gamble otherwise, since an unlucky new seed can concentrate keys
// worse than the old one. Keys are copied once regardless of how many
// candidates are scored (an earlier version re-snapshotted the whole
// cache per candidate — full deep copies of every entry, times the
// candidate count, taken under the serving locks); concurrent writers
// skew the prediction by at most the in-flight traffic.
func (c *ShardedCache) PreviewSeeds(seeds []uint64) ([]float64, error) {
	cands := make([]*lsh.Hasher, len(seeds))
	for i, seed := range seeds {
		h, err := lsh.NewHasher(c.dim, c.bits, seed)
		if err != nil {
			return nil, err
		}
		cands[i] = h
	}
	n := len(c.slots)
	counts := make([][]int, len(seeds))
	for i := range counts {
		counts[i] = make([]int, n)
	}
	total := 0
	for i := range c.slots {
		for _, k := range c.slots[i].keys() {
			total++
			for j, cand := range cands {
				counts[j][shardIndex(cand.Hash(k), n)]++
			}
		}
	}
	out := make([]float64, len(seeds))
	for j := range seeds {
		maxCount := 0
		for _, ct := range counts[j] {
			if ct > maxCount {
				maxCount = ct
			}
		}
		out[j] = imbalanceOf(maxCount, total, n)
	}
	return out, nil
}

// keys copies the slot's key embeddings out under the shared lock.
func (s *slot) keys() []vec.Vector {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries := s.cache.Entries()
	out := make([]vec.Vector, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

// Reseed re-draws the LSH partitioner from the given seed and migrates
// the cache contents to match, shard by shard. There is no stop-the-world
// phase: the new hasher is installed atomically (all new traffic routes
// by the re-drawn signature immediately), then each shard is rebuilt in
// turn while holding only that shard's lock — readers of every other
// shard proceed untouched. Until an entry's shard has been processed, a
// lookup that now routes elsewhere misses; for an approximate cache that
// is a transient hit-rate dip, never a wrong answer, and the window is
// one shard's rebuild.
//
// Counters are conserved: retired sub-cache generations fold into a
// per-slot baseline, and the migration's own re-inserts are subtracted
// from the Puts totals, so Hits/Misses/Puts/Evictions reflect client
// traffic exactly as if no migration had happened (evictions caused by
// entries crowding into a fuller target shard are genuine displacements
// and stay counted).
//
// At most one migration runs at a time (ErrMigrationInProgress).
func (c *ShardedCache) Reseed(seed uint64) (Migration, error) {
	if !c.migrateMu.TryLock() {
		return Migration{}, ErrMigrationInProgress
	}
	defer c.migrateMu.Unlock()

	// Fail before touching routing state: a factory error must not
	// leave the cache half-migrated, so the replacement sub-caches are
	// all built up front (empty caches are cheap) and the sweep cannot
	// fail after the hasher swap. swapped marks slots whose pre-built
	// replacement was installed; the others — all of them when a build
	// fails — are closed on return (a fresh tiered cache already holds
	// an open warm file).
	fresh := make([]core.Cache, len(c.slots))
	swapped := make([]bool, len(c.slots))
	defer func() {
		for i, used := range swapped {
			if closer, ok := fresh[i].(io.Closer); ok && !used {
				closer.Close()
			}
		}
	}()
	for i := range fresh {
		sub, err := c.build(i)
		if err != nil {
			return Migration{}, err
		}
		fresh[i] = sub
	}
	next, err := lsh.NewHasher(c.dim, c.bits, seed)
	if err != nil {
		return Migration{}, err
	}

	start := time.Now()
	m := Migration{Seed: seed, Before: c.Report().Imbalance}

	// From here on, all new traffic routes by the re-drawn signature;
	// the per-shard sweep below re-homes what the old draw placed.
	// Clear cannot interleave — it queues on migrateMu — so deliveries
	// can never resurrect entries a flush erased.
	c.hasher.Store(next)
	c.seed.Store(seed)

	n := len(c.slots)
	// delivered[j] counts entries this migration has already moved INTO
	// slot j before j's own sweep; j's sweep re-enumerates them as
	// "stay", so they must not count toward Stayed a second time.
	delivered := make([]int, n)
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.Lock()
		entries := s.cache.Entries()
		var stay []core.Entry
		moves := make(map[int][]core.Entry)
		for _, e := range entries {
			if j := shardIndex(next.Hash(e.Key), n); j == i {
				stay = append(stay, e)
			} else {
				moves[j] = append(moves[j], e)
			}
		}
		if len(moves) > 0 {
			// Rebuild the slot without the leavers. Entries re-insert in
			// eviction order, so the survivor ordering carries over.
			for _, e := range stay {
				fresh[i].PutWithTolerance(e.Key, e.Docs, e.Tol)
			}
			retired := s.cache.Stats().Counters()
			retired.Puts -= int64(len(stay)) // re-inserts are not client traffic
			s.base.Merge(retired)
			old := s.cache
			s.cache = fresh[i]
			swapped[i] = true
			// Retired tiered generations hold a warm record file; release
			// it now that the enumeration copied everything out.
			if closer, ok := old.(io.Closer); ok {
				closer.Close()
			}
		}
		s.mu.Unlock()

		// Deliver the leavers to their new owners, one shard at a time.
		// The exclusive lock makes the insert batch and its Puts
		// correction atomic against concurrent Stats readers.
		for j, list := range moves {
			d := &c.slots[j]
			d.mu.Lock()
			for _, e := range list {
				d.cache.PutWithTolerance(e.Key, e.Docs, e.Tol)
			}
			d.base.Puts -= int64(len(list))
			d.mu.Unlock()
			m.Moved += len(list)
			delivered[j] += len(list)
		}
		// Concurrent client puts can still perturb the count slightly;
		// the clamp keeps it sane.
		if stayed := len(stay) - delivered[i]; stayed > 0 {
			m.Stayed += stayed
		}
	}

	m.After = c.Report().Imbalance
	m.Elapsed = time.Since(start)
	return m, nil
}
