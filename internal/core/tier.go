package core

import "proximity/internal/vec"

// Tiering contracts: internal/tier composes a small hot cache (FLAT or
// LSH) over a larger file-backed warm tier. The hot tier cannot answer a
// lookup on its own — a warm entry may be strictly closer — so the tiered
// Get needs the hot tier's best admissible candidate WITHOUT the side
// effects of a normal Get (hit counting, LRU refresh): if the warm tier
// wins, the hot candidate was not hit and must not be refreshed. TierGet
// returns that candidate plus a deferred Commit that applies the side
// effects only once the tiered cache decides the hot tier actually won.

// TierHit is the uncommitted result of a TierGet: the candidate's
// documents (already copied) and its exact distance to the query.
// Commit applies the hit's side effects (hit counter, LRU recency
// refresh) on the cache that produced it; a TierHit that loses to a
// warm entry is simply dropped. Commit must be called before any other
// mutation of the producing cache.
//
// The producing FlatCache and the winning entry's slot and insertion
// stamp ride along as plain fields rather than a captured closure:
// TierGet sits on the tiered lookup's hot path, and a closure capturing
// the cache and position would cost one heap allocation per hot hit.
// LSHCache hands out its winning bucket's TierHit.
type TierHit struct {
	Docs []int
	Dist float32

	src   *FlatCache
	slot  int
	stamp uint32
}

// Commit applies the deferred hit bookkeeping. Safe on the zero value.
func (h TierHit) Commit() {
	if h.src != nil {
		h.src.commitTierHit(h)
	}
}

// TierCache is the contract a cache variant must satisfy to serve as
// the hot tier of a tier.TieredCache: the plain Cache surface (its
// Entries are the demotion-order handoff) and the two-phase lookup. FlatCache and LSHCache qualify.
type TierCache interface {
	Cache
	// TierGet returns the closest admissible entry without counting a
	// hit/miss or refreshing recency (distance computations are still
	// charged). The returned documents are a copy.
	TierGet(q vec.Vector) (TierHit, bool)
}

// TierStats describes a tiered cache's per-tier occupancy and traffic,
// as the Tier block of its Stats. Entries/Capacity/Bytes fields are
// gauges of the live structure; the rest are cumulative counters. The
// server renders it as the tiers block of /v1/stats: the tags are wire
// names.
type TierStats struct {
	// HotEntries/HotCapacity describe the in-memory hot tier.
	HotEntries  int `json:"hotEntries"`
	HotCapacity int `json:"hotCapacity"`
	// WarmEntries/WarmCapacity describe the file-backed warm tier;
	// WarmBytes is the vector bytes resident in the warm record file.
	WarmEntries  int   `json:"warmEntries"`
	WarmCapacity int   `json:"warmCapacity"`
	WarmBytes    int64 `json:"warmBytes"`

	// HotHits/WarmHits split the cache's hits by serving tier.
	HotHits  int64 `json:"hotHits"`
	WarmHits int64 `json:"warmHits"`
	// Promotions counts warm entries moved back into the hot tier on a
	// warm hit (LRU only — FIFO serves warm hits in place to preserve
	// the combined eviction order).
	Promotions int64 `json:"promotions"`
	// Demotions counts hot-tier evictions absorbed into the warm tier
	// instead of being discarded.
	Demotions int64 `json:"demotions"`
	// WarmDiscards counts entries that aged out of the warm tier — the
	// tiered cache's true evictions.
	WarmDiscards int64 `json:"warmDiscards"`

	// WarmLookups counts lookups that consulted a non-empty warm tier;
	// WarmScanned counts warm records read and compared; WarmPruned
	// counts entries ruled out on their in-memory key head without
	// touching the record file. Each lookup adds its warm entry count
	// to their sum.
	WarmLookups int64 `json:"warmLookups"`
	WarmScanned int64 `json:"warmScanned"`
	WarmPruned  int64 `json:"warmPruned"`
}

// Merge accumulates other's counters into s and sums the gauges (used
// by sharded aggregation, where per-shard tiers partition the totals).
func (s *TierStats) Merge(other TierStats) {
	s.HotEntries += other.HotEntries
	s.HotCapacity += other.HotCapacity
	s.WarmEntries += other.WarmEntries
	s.WarmCapacity += other.WarmCapacity
	s.WarmBytes += other.WarmBytes
	s.HotHits += other.HotHits
	s.WarmHits += other.WarmHits
	s.Promotions += other.Promotions
	s.Demotions += other.Demotions
	s.WarmDiscards += other.WarmDiscards
	s.WarmLookups += other.WarmLookups
	s.WarmScanned += other.WarmScanned
	s.WarmPruned += other.WarmPruned
}

// TierStatser is implemented by tier.TieredCache, whose TierStats is
// its Stats().Tier.
type TierStatser interface {
	TierStats() TierStats
}
