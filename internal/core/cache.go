// Package core implements Proximity, the paper's approximate key-value
// cache for RAG pipelines. Keys are query embeddings; values are the
// document indices a vector database returned for those queries. A lookup
// succeeds when some cached key lies within a similarity tolerance τ of
// the incoming query, in which case the cached documents are reused and
// the expensive database nearest-neighbor search is skipped (Algorithm 1).
//
// Every variant compares keys by L2, the paper's evaluation metric, so a
// scan can abandon a key once its partial sum passes the bound. In front
// of a cosine database (§3.1) the cache takes unit-normalized embeddings,
// where 1 − cos(a, b) = ‖a − b‖²/2, and τ = √(2·τ_cos).
//
// Two of the three cache variants live here, both from §3 of the paper:
//
//   - FlatCache (Proximity-FLAT): a single pool scanned linearly on every
//     lookup — exact with respect to the cached set, but O(c·d) per query.
//   - LSHCache (Proximity-LSH): 2^L lazily-allocated buckets selected by a
//     random-hyperplane signature, each a small fixed-capacity flat pool —
//     O((L+b)·d) per query, independent of total capacity.
//
// The third, internal/tier's TieredCache, puts one of these as a small
// hot tier over a file-backed warm tier. All three support FIFO and LRU
// eviction and the re-ranking factor ρ (§3.3.4) via CachedRetriever. All
// cache types are safe for concurrent use.
package core

import (
	"errors"
	"fmt"
	"math"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// Policy selects the eviction strategy applied when a cache (or an LSH
// bucket) is full (§3.3.2).
type Policy int

const (
	// FIFO evicts the oldest inserted entry regardless of use.
	FIFO Policy = iota + 1
	// LRU evicts the entry unused for the longest time; cache hits
	// refresh recency.
	LRU
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LRU:
		return "lru"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a string into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fifo":
		return FIFO, nil
	case "lru":
		return LRU, nil
	default:
		return 0, fmt.Errorf("core: unknown eviction policy %q", s)
	}
}

// Options configures a cache variant.
type Options struct {
	// Capacity is the maximum number of cached entries c (per bucket
	// for LSHCache, where it is the per-bucket capacity b). Must be in
	// [1, 2³¹).
	Capacity int
	// Tolerance is the similarity threshold τ: a lookup hits when the
	// closest cached key is at L2 distance ≤ τ. τ = 0 degenerates to
	// exact matching (§3.3.3). Must be non-negative (NaN is refused).
	Tolerance float32
	// Policy is the eviction strategy. Defaults to FIFO, the paper's
	// default for the uniform benchmarks (§4.3).
	Policy Policy
	// OnEvict, when set, observes every capacity eviction: instead of
	// silently discarding the victim, the cache hands it over — this is
	// the demotion hook the tiered cache (internal/tier) uses to absorb
	// hot-tier evictions into its warm tier. The Entry's key and docs
	// are an ownership transfer of the victim's own slices (never
	// aliased by the cache afterwards), so the hook may retain them
	// without copying. The hook runs under the cache's lock: it must
	// not call back into the cache. A hook that copies the key out may
	// later hand its buffer back through TierCache.Recycle; doing so is
	// optional.
	OnEvict func(Entry)
}

func (o *Options) fillDefaults() {
	if o.Policy == 0 {
		o.Policy = FIFO
	}
}

func (o Options) validate() error {
	if o.Capacity <= 0 || o.Capacity > math.MaxInt32 {
		return fmt.Errorf("core: capacity must be in [1, 2³¹), got %d", o.Capacity)
	}
	if !(o.Tolerance >= 0) {
		return fmt.Errorf("core: tolerance must be non-negative, got %v", o.Tolerance)
	}
	if o.Policy != FIFO && o.Policy != LRU {
		return fmt.Errorf("core: unknown eviction policy %d", int(o.Policy))
	}
	return nil
}

// Stats is one snapshot of a cache's cumulative counters. One Stats()
// call reads a cache at one instant — a sharded cache at one instant per
// shard — so relations between its fields hold within a snapshot: hits
// from the hot and the warm tier add up to Hits, and a sharded cache's
// Shards rows add up to its totals. HitRate is derived.
type Stats struct {
	Hits      int64 // lookups answered from the cache
	Misses    int64 // lookups that fell through to the database
	Puts      int64 // insertions
	Evictions int64 // entries displaced by capacity pressure
	// DistComps counts the keys lookups examined: one per key a scan
	// visits, whether its distance was finished or abandoned early once
	// it provably exceeded the scan's threshold. It measures how many
	// keys a lookup touches, not how many floats.
	DistComps int64
	HashOps   int64 // LSH hyperplane projections (LSHCache only)

	// Tier describes the tiers of a tier.TieredCache. A nil block means
	// the cache has no tiers; a sharded cache always fills it,
	// zero-valued where no shard has one.
	Tier *TierStats
	// Shards holds one row per shard of a sharded cache, in shard order;
	// nil for a cache that is not sharded.
	Shards []ShardStats
}

// ShardStats is one shard's row of a sharded cache's Stats: its
// occupancy and counters, read under the same lock at one instant.
type ShardStats struct {
	Entries   int
	Capacity  int
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
}

// Occupancy returns Entries / Capacity, or 0 without capacity.
func (s ShardStats) Occupancy() float64 {
	if s.Capacity > 0 {
		return float64(s.Entries) / float64(s.Capacity)
	}
	return 0
}

// Merge adds o's counters into s, and o's Tier block into s's (a block
// s lacks starts from zero). Merge never writes through a block pointer:
// the merged block is a fresh copy, so merging into a copy of a Stats
// leaves the original's block, and o's, as they were. Merge
// leaves s.Shards as it is and ignores o's: the rows describe the shards
// of one cache, and the sub-caches a sharded cache merges carry none.
func (s *Stats) Merge(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Puts += o.Puts
	s.Evictions += o.Evictions
	s.DistComps += o.DistComps
	s.HashOps += o.HashOps
	if o.Tier != nil {
		var ts TierStats
		if s.Tier != nil {
			ts = *s.Tier
		}
		ts.Merge(*o.Tier)
		s.Tier = &ts
	}
}

// Counters returns a copy of s with its Tier block's gauges zeroed: what
// is still true of a cache once it has been replaced. A shard folds a
// retired sub-cache into its baseline this way; the gauges (entries,
// capacities, bytes) belong to the replacement.
func (s Stats) Counters() Stats {
	if s.Tier != nil {
		ts := *s.Tier
		ts.HotEntries, ts.HotCapacity, ts.WarmEntries, ts.WarmCapacity, ts.WarmBytes = 0, 0, 0, 0, 0
		s.Tier = &ts
	}
	return s
}

// Lookups returns the total number of Get calls.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate returns Hits / Lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Cache is the approximate key-value store interface shared by the three
// variants (FLAT, LSH and Tiered), by the sharded cache that
// partitions any of them, and by the cluster client. Implementations are
// safe for concurrent use.
type Cache interface {
	// Get returns the documents cached for the closest key within
	// tolerance, or ok=false on a miss. The returned slice is a copy.
	Get(q vec.Vector) (docs []int, ok bool)
	// Put caches the documents retrieved for query embedding q under
	// the cache-wide tolerance, evicting if necessary. The key and
	// value are copied.
	Put(q vec.Vector, docs []int)
	// PutWithTolerance caches an entry with its own match threshold,
	// the per-line dynamic tolerance extension (§3.3.3). Negative and
	// NaN tolerances are ignored.
	PutWithTolerance(q vec.Vector, docs []int, tol float32)
	// Len returns the current number of cached entries.
	Len() int
	// Capacity returns the maximum number of entries (for LSHCache,
	// the theoretical maximum 2^L·b).
	Capacity() int
	// Stats returns one snapshot of the cumulative counters, with the
	// tier block when the cache has one.
	Stats() Stats
	// Clear removes all entries (counters are preserved).
	Clear()
	// Entries returns copies of the cached lines, in eviction order
	// where the cache defines one, so re-inserting them in the returned
	// order reproduces the same eviction sequence. The shard migrator
	// and the one-file snapshot read it.
	Entries() []Entry
}

// Searcher abstracts the miss-path nearest-neighbor search, the database
// side of Algorithm 1. vectordb.DB satisfies it, as does the batch
// pipeline's coalesced entry point.
type Searcher interface {
	Search(q vec.Vector, k int) ([]vec.Scored, error)
}

// The check also makes cache.go, the first file of the package, import
// vectordb, so the linker places vectordb's scan right after vec's
// kernels. Placed after telemetry instead, the same FlatIndex scan ran
// about 20 % slower in the ./bench binary.
var _ Searcher = vectordb.DB(nil)

// Entry is one cached line as seen through Cache.Entries: the key
// embedding, its documents, and its per-line match tolerance. All fields
// are copies — holding an Entry never aliases live cache state.
type Entry struct {
	Key  vec.Vector
	Docs []int
	Tol  float32
}

// errNilQuery guards the public entry points.
var errNilQuery = errors.New("core: nil query embedding")
