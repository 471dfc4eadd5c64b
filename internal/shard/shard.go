// Package shard horizontally partitions a Proximity cache across N
// independently-locked sub-caches, removing the single-mutex bottleneck
// that serializes FlatCache and LSHCache lookups under concurrent load.
// The paper's middleware deployment (Fig. 4) serves many clients at once;
// serving-oriented RAG caches (RAGCache, Cache-Craft) show that lock
// contention, not mean lookup cost, dominates tail latency at scale.
//
// Keys are routed to shards by an LSH signature: queries within the
// cache tolerance collide on the same shard with high probability, so
// approximate hits survive partitioning. Each shard is any core.Cache —
// FLAT, LSH or tiered — built by a per-shard factory, and the
// whole structure satisfies core.Cache, making ShardedCache a drop-in for
// core.CachedRetriever.
//
// The partition is fixed at New: the partitioner's hyperplanes are drawn
// once, from Options.Seed, and a key routes to the same shard for the
// cache's lifetime. The eviction-pressure report's Imbalance shows how
// evenly the draw spreads keys, and on the repository benchmark's Zipf
// stream it never asked for another draw: 2 LSH shards read 1.01–1.02
// and 8 at most 1.25, under the rebalance controller's default trigger
// of 1.5; re-draws forced anyway lowered the hit rate in every run where
// one acted (by 0.003 to 0.016); and FLAT shards read exactly 1.000 once
// full, because an entries-based Imbalance saturates there.
package shard

import (
	"fmt"
	"io"
	"runtime"

	"proximity/internal/core"
	"proximity/internal/lsh"
	"proximity/internal/tier"
	"proximity/internal/vec"
)

// Factory builds the sub-cache for one shard index. Factories let any
// core.Cache variant back a shard; the helpers in this package cover the
// FLAT, LSH and tiered cases.
type Factory func(shard int) (core.Cache, error)

// DefaultSignatureBits is the partitioner's hyperplane count. 2^10
// signatures spread far more finely than any realistic shard count,
// keeping the modulo reduction balanced.
const DefaultSignatureBits = 10

// Options configures a ShardedCache.
type Options struct {
	// Shards is the number of independently-locked partitions.
	// Defaults to runtime.GOMAXPROCS(0).
	Shards int
	// Seed drives the partitioner's one hyperplane draw, so a fixed seed
	// fixes every key's shard for the cache's lifetime.
	Seed uint64
	// New builds each shard's sub-cache. Required.
	New Factory
}

// ShardedCache hash-partitions keys across independently-locked
// sub-caches. It satisfies core.Cache, so it drops into
// core.CachedRetriever wherever a FlatCache or LSHCache does. All methods
// are safe for concurrent use: the partition never changes after New, so
// routing reads no shared mutable state and each operation takes only
// its sub-cache's own lock.
type ShardedCache struct {
	shards []core.Cache
	hasher *lsh.Hasher // the partitioner, DefaultSignatureBits planes
	dim    int
}

var _ core.Cache = (*ShardedCache)(nil)

// New creates a ShardedCache for dim-dimensional embeddings, building one
// sub-cache per shard through opts.New.
func New(dim int, opts Options) (*ShardedCache, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("shard: dimension must be positive, got %d", dim)
	}
	if opts.New == nil {
		return nil, fmt.Errorf("shard: a sub-cache factory is required")
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("shard: shard count must be non-negative, got %d", opts.Shards)
	}
	n := opts.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	hasher, err := lsh.NewHasher(dim, DefaultSignatureBits, opts.Seed)
	if err != nil {
		return nil, err
	}
	c := &ShardedCache{shards: make([]core.Cache, n), hasher: hasher, dim: dim}
	for i := range c.shards {
		sub, err := opts.New(i)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		if sub == nil {
			return nil, fmt.Errorf("shard: factory returned nil cache for shard %d", i)
		}
		c.shards[i] = sub
	}
	return c, nil
}

// split resolves a shard count (≤ 0 means runtime.GOMAXPROCS(0)) and
// divides a total capacity evenly across it, rounded up, so the shards
// together hold at least the total.
func split(shards, total int) (n, per int) {
	n = shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	per = total / n
	if total%n != 0 {
		per++
	}
	return n, per
}

// NewFlat creates a ShardedCache of FLAT sub-caches. The configured
// capacity is the TOTAL across shards (split evenly, rounded up), so the
// result is a drop-in replacement for a single FlatCache of the same
// capacity. seed drives the shard partitioner.
func NewFlat(dim, shards int, opts core.Options, seed uint64) (*ShardedCache, error) {
	// Resolve the shard count once so the per-shard capacity split and
	// the built partition count can never diverge.
	n, per := split(shards, opts.Capacity)
	sub := opts
	sub.Capacity = per
	return New(dim, Options{
		Shards: n,
		Seed:   seed,
		New:    func(int) (core.Cache, error) { return core.NewFlat(dim, sub) },
	})
}

// NewTiered creates a ShardedCache of tiered sub-caches (tier.
// TieredCache): each shard composes its own hot in-memory cache over its
// own file-backed warm tier. The configured hot and warm capacities are
// TOTALS across shards (split evenly, rounded up). The partitioner uses
// seed.
func NewTiered(dim, shards int, opts tier.Options, seed uint64) (*ShardedCache, error) {
	n, hot := split(shards, opts.HotCapacity)
	_, warm := split(n, opts.WarmCapacity)
	return New(dim, Options{
		Shards: n,
		Seed:   seed,
		New: func(i int) (core.Cache, error) {
			sub := opts
			sub.HotCapacity = hot
			sub.WarmCapacity = warm
			return tier.New(dim, sub)
		},
	})
}

// NewLSH creates a ShardedCache of LSH sub-caches. Each shard keeps the
// full bucket geometry (2^Bits buckets of BucketCapacity) — buckets are
// lazily allocated, so actual memory still tracks usage. Shard sub-caches
// draw distinct hyperplanes (opts.Seed + shard index); the partitioner
// uses opts.Seed directly.
func NewLSH(dim, shards int, opts core.LSHOptions) (*ShardedCache, error) {
	return New(dim, Options{
		Shards: shards,
		Seed:   opts.Seed,
		New: func(i int) (core.Cache, error) {
			sub := opts
			sub.Seed = opts.Seed + 1 + uint64(i)
			return core.NewLSH(dim, sub)
		},
	})
}

// shardIndex reduces an LSH signature to a shard index. The signature
// MUST be avalanche-mixed before the modulo: a raw `sig % n` with a
// power-of-two shard count keeps only the low log2(n) bits, i.e. the
// signs of the first few hyperplanes — every other hyperplane would be
// dead weight, exactly the low-bit pathology the cluster ring's keyPos
// already corrects for.
func shardIndex(sig uint32, n int) int {
	return int(mix32(sig) % uint32(n))
}

// mix32 is the murmur3 finalizer: a full-avalanche bijection on 32-bit
// words.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// shardFor returns the sub-cache q routes to.
func (c *ShardedCache) shardFor(q vec.Vector) core.Cache {
	return c.shards[shardIndex(c.hasher.Hash(q), len(c.shards))]
}

// Get routes the query to its shard and looks it up there; distinct
// shards never contend. A nil or wrong-length query is an uncounted
// miss.
func (c *ShardedCache) Get(q vec.Vector) ([]int, bool) {
	if len(q) != c.dim {
		return nil, false
	}
	return c.shardFor(q).Get(q)
}

// Put routes the entry to its shard and inserts it under the sub-cache's
// configured tolerance. A nil or wrong-length key is ignored.
func (c *ShardedCache) Put(q vec.Vector, docs []int) {
	if len(q) != c.dim {
		return
	}
	c.shardFor(q).Put(q, docs)
}

// PutWithTolerance routes the entry to its shard and inserts it with its
// own match threshold (§3.3.3's per-line dynamic tolerance). A nil or
// wrong-length key is ignored.
func (c *ShardedCache) PutWithTolerance(q vec.Vector, docs []int, tol float32) {
	if len(q) != c.dim {
		return
	}
	c.shardFor(q).PutWithTolerance(q, docs, tol)
}

// Len returns the total number of entries across shards.
func (c *ShardedCache) Len() int {
	total := 0
	for _, sh := range c.shards {
		total += sh.Len()
	}
	return total
}

// Capacity returns the summed capacity of all shards.
func (c *ShardedCache) Capacity() int {
	total := 0
	for _, sh := range c.shards {
		total += sh.Capacity()
	}
	return total
}

// Stats aggregates counters across shards in one pass, one sub-cache
// Stats() per shard, so each shard's part of the snapshot — its tier
// block and its Shards row included — is read at one instant. The tier
// block is always present, zero-valued where no shard has one.
// HashOps includes both the partitioner's routing projections and any
// hashing the sub-caches do; the routing share is derived from the
// operation counts (every Get and Put hashes once) rather than tracked
// on the hot path, so lookups on distinct shards share no mutable state
// at all.
func (c *ShardedCache) Stats() core.Stats {
	agg := core.Stats{Tier: &core.TierStats{}, Shards: make([]core.ShardStats, len(c.shards))}
	for i, sh := range c.shards {
		st := sh.Stats()
		agg.Shards[i] = core.ShardStats{Entries: sh.Len(), Capacity: sh.Capacity(),
			Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, Evictions: st.Evictions}
		agg.Merge(st)
	}
	agg.HashOps += (agg.Hits + agg.Misses + agg.Puts) * DefaultSignatureBits
	return agg
}

// Entries enumerates the combined contents of all shards (per-shard
// eviction order, shard order by index), so a sharded cache snapshots as
// one file through core.SaveSnapshot; replaying it routes each entry
// through the partitioner of the cache it is replayed into.
func (c *ShardedCache) Entries() []core.Entry {
	var out []core.Entry
	for _, sh := range c.shards {
		out = append(out, sh.Entries()...)
	}
	return out
}

// Close releases per-shard resources (tiered sub-caches hold warm record
// files). Sub-caches without resources are unaffected. The cache must
// not be used afterwards.
func (c *ShardedCache) Close() error {
	var first error
	for _, sh := range c.shards {
		if closer, ok := sh.(io.Closer); ok {
			if err := closer.Close(); first == nil {
				first = err
			}
		}
	}
	return first
}

// Clear removes all entries from every shard (counters are preserved by
// sub-caches that preserve them).
func (c *ShardedCache) Clear() {
	for _, sh := range c.shards {
		sh.Clear()
	}
}
