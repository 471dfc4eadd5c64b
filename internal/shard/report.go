package shard

import (
	"fmt"

	"proximity/internal/report"
)

// ShardLoad is one shard's occupancy and pressure snapshot.
type ShardLoad struct {
	Shard     int
	Entries   int
	Capacity  int
	Occupancy float64 // Entries / Capacity
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
}

// PressureReport summarizes occupancy and eviction pressure across
// shards — the operational view a capacity planner needs: is the
// partitioner spreading load, and which shards are thrashing?
type PressureReport struct {
	Shards []ShardLoad
	// Entries and Capacity are cache-wide totals; Occupancy their
	// ratio.
	Entries   int
	Capacity  int
	Occupancy float64
	// Evictions is the cache-wide total.
	Evictions int64
	// MaxOccupancy is the fullest shard's occupancy.
	MaxOccupancy float64
	// Imbalance is max shard entries over mean shard entries: 1.0 is a
	// perfectly even spread; values well above 1 mean the partitioner
	// concentrates keys (hot shards evict while cold shards sit idle).
	// Defined as exactly 1.0 — never NaN or Inf — when the cache is
	// empty or has a single shard, since no re-spreading of zero
	// entries (or of one shard) can improve anything.
	Imbalance float64
}

// imbalanceOf is the Imbalance definition shared by Report and
// PreviewSeed: max shard entries over mean shard entries, pinned to the
// perfectly-balanced 1.0 when there are no entries to spread or no
// alternative shard to spread them to. Threshold comparisons in the
// rebalance controller rely on the pinning — a NaN here would make every
// comparison false and silently disable rebalancing.
func imbalanceOf(maxEntries, totalEntries, shards int) float64 {
	if totalEntries == 0 || shards <= 1 {
		return 1
	}
	return float64(maxEntries) / (float64(totalEntries) / float64(shards))
}

// Report takes a consistent-enough snapshot of every shard (each shard is
// read atomically; cross-shard skew under concurrent writes is bounded by
// one in-flight operation per shard) and derives the pressure summary.
// Counters include generations retired by re-draw migrations.
func (c *ShardedCache) Report() PressureReport {
	r := PressureReport{Shards: make([]ShardLoad, len(c.slots))}
	maxEntries := 0
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.RLock()
		st := s.statsLocked()
		load := ShardLoad{
			Shard:     i,
			Entries:   s.cache.Len(),
			Capacity:  s.cache.Capacity(),
			Hits:      st.Hits,
			Misses:    st.Misses,
			Puts:      st.Puts,
			Evictions: st.Evictions,
		}
		s.mu.RUnlock()
		if load.Capacity > 0 {
			load.Occupancy = float64(load.Entries) / float64(load.Capacity)
		}
		r.Shards[i] = load
		r.Entries += load.Entries
		r.Capacity += load.Capacity
		r.Evictions += load.Evictions
		if load.Occupancy > r.MaxOccupancy {
			r.MaxOccupancy = load.Occupancy
		}
		if load.Entries > maxEntries {
			maxEntries = load.Entries
		}
	}
	if r.Capacity > 0 {
		r.Occupancy = float64(r.Entries) / float64(r.Capacity)
	}
	r.Imbalance = imbalanceOf(maxEntries, r.Entries, len(r.Shards))
	return r
}

// Render formats the report as an aligned table plus the summary line.
func (r PressureReport) Render() string {
	t := report.NewTable("Shard pressure",
		"shard", "entries", "capacity", "occupancy%", "hits", "misses", "puts", "evictions")
	for _, s := range r.Shards {
		t.AddRow(
			fmt.Sprintf("%d", s.Shard),
			fmt.Sprintf("%d", s.Entries),
			fmt.Sprintf("%d", s.Capacity),
			report.Percent(s.Occupancy),
			fmt.Sprintf("%d", s.Hits),
			fmt.Sprintf("%d", s.Misses),
			fmt.Sprintf("%d", s.Puts),
			fmt.Sprintf("%d", s.Evictions),
		)
	}
	return t.String() + fmt.Sprintf(
		"total %d/%d entries (%s%% full, max shard %s%%), %d evictions, imbalance %.2f\n",
		r.Entries, r.Capacity, report.Percent(r.Occupancy),
		report.Percent(r.MaxOccupancy), r.Evictions, r.Imbalance)
}
