package shard

import (
	"fmt"

	"proximity/internal/core"
	"proximity/internal/report"
)

// PressureReport summarizes occupancy and eviction pressure across
// shards — the operational view a capacity planner needs: is the
// partitioner spreading load, and which shards are thrashing?
type PressureReport struct {
	Shards []core.ShardStats
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

// imbalanceOf is Pressure's Imbalance: max shard entries over mean shard
// entries, pinned to the perfectly-balanced 1.0 when there are no entries
// to spread or no alternative shard to spread them to. Threshold
// comparisons on the reported value (the server's shard_imbalance)
// rely on the pinning — a NaN here would make every comparison false.
func imbalanceOf(maxEntries, totalEntries, shards int) float64 {
	if totalEntries == 0 || shards <= 1 {
		return 1
	}
	return float64(maxEntries) / (float64(totalEntries) / float64(shards))
}

// Report derives the pressure summary from one Stats() snapshot: each
// shard's row is read at one instant, and cross-shard skew under
// concurrent writes is bounded by one in-flight operation per shard.
func (c *ShardedCache) Report() PressureReport { return Pressure(c.Stats().Shards) }

// Pressure summarizes the Shards rows of one Stats() snapshot.
func Pressure(rows []core.ShardStats) PressureReport {
	r := PressureReport{Shards: rows}
	maxEntries := 0
	for _, row := range r.Shards {
		r.Entries += row.Entries
		r.Capacity += row.Capacity
		r.Evictions += row.Evictions
		r.MaxOccupancy = max(r.MaxOccupancy, row.Occupancy())
		maxEntries = max(maxEntries, row.Entries)
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
	for i, s := range r.Shards {
		t.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", s.Entries),
			fmt.Sprintf("%d", s.Capacity),
			report.Percent(s.Occupancy()),
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
