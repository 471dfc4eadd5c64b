package telemetry

// Metric series names: the single registry of every Prometheus series
// this process exports. Registration sites must use these constants —
// never an in-place string literal — because a typo'd literal does not
// fail, it silently forks a fresh series next to the canonical one and
// every dashboard keyed on the real name goes dark for that code path.
// The stagenames analyzer (internal/lint, run by cmd/proximity-vet)
// enforces this at CI time; the Stage enum above plays the same role
// for stage labels.
//
// Names follow Prometheus conventions: a proximity_ namespace prefix,
// _total on counters, base units in the name (_seconds, _bytes).
const (
	// Stage-latency histogram family (labeled by Stage.String()).
	MetricStageLatencySeconds = "proximity_stage_latency_seconds"

	// Cache hit/miss/occupancy (any core.Cache variant).
	MetricCacheHitsTotal      = "proximity_cache_hits_total"
	MetricCacheMissesTotal    = "proximity_cache_misses_total"
	MetricCacheEvictionsTotal = "proximity_cache_evictions_total"
	MetricCachePutsTotal      = "proximity_cache_puts_total"
	MetricCacheDistCompsTotal = "proximity_cache_distance_comparisons_total"
	MetricCacheEntries        = "proximity_cache_entries"
	MetricCacheCapacity       = "proximity_cache_capacity"

	// Tier occupancy and traffic (tier.TieredCache).
	MetricTierHotEntries        = "proximity_tier_hot_entries"
	MetricTierHotCapacity       = "proximity_tier_hot_capacity"
	MetricTierWarmEntries       = "proximity_tier_warm_entries"
	MetricTierWarmCapacity      = "proximity_tier_warm_capacity"
	MetricTierWarmBytes         = "proximity_tier_warm_bytes"
	MetricTierHotHitsTotal      = "proximity_tier_hot_hits_total"
	MetricTierWarmHitsTotal     = "proximity_tier_warm_hits_total"
	MetricTierPromotionsTotal   = "proximity_tier_promotions_total"
	MetricTierDemotionsTotal    = "proximity_tier_demotions_total"
	MetricTierWarmDiscardsTotal = "proximity_tier_warm_discards_total"
	MetricTierWarmScannedTotal  = "proximity_tier_warm_scanned_total"
	MetricTierWarmPrunedTotal   = "proximity_tier_warm_pruned_total"

	// Miss-coalescing pipeline (internal/batch).
	MetricBatchSearchesTotal  = "proximity_batch_searches_total"
	MetricBatchCoalescedTotal = "proximity_batch_coalesced_total"
	MetricBatchErrorsTotal    = "proximity_batch_errors_total"

	// Go runtime gauges (RegisterRuntimeMetrics).
	MetricGoroutines         = "proximity_goroutines"
	MetricHeapAllocBytes     = "proximity_heap_alloc_bytes"
	MetricHeapObjects        = "proximity_heap_objects"
	MetricGCCyclesTotal      = "proximity_gc_cycles_total"
	MetricGCLastPauseSeconds = "proximity_gc_last_pause_seconds"
)
