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
// FLAT, LSH, indexed or tiered — built by a per-shard factory, and the
// whole structure satisfies core.Cache, making ShardedCache a drop-in for
// core.CachedRetriever.
//
// A skewed query stream can still concentrate signatures on a few shards
// (the eviction-pressure report's Imbalance makes this visible). The
// partitioner is re-drawable at runtime: Reseed re-draws the hyperplanes
// and migrates entries shard-by-shard without a stop-the-world lock, and
// PreviewSeed predicts a candidate seed's imbalance before committing to
// a migration. See migrate.go and internal/rebalance for the controller
// that closes the loop.
package shard

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"proximity/internal/core"
	"proximity/internal/lsh"
	"proximity/internal/tier"
	"proximity/internal/vec"
)

// Factory builds the sub-cache for one shard index. Factories let any
// core.Cache variant back a shard; the helpers in this package cover the
// FLAT, LSH, indexed and tiered cases. The factory is retained for the
// lifetime of the ShardedCache: a re-draw migration (Reseed) rebuilds
// shards through it.
type Factory func(shard int) (core.Cache, error)

// DefaultSignatureBits is the partitioner's hyperplane count when
// Options.SignatureBits is zero. 2^10 signatures spread far more finely
// than any realistic shard count, keeping the modulo reduction balanced.
const DefaultSignatureBits = 10

// Options configures a ShardedCache.
type Options struct {
	// Shards is the number of independently-locked partitions.
	// Defaults to runtime.GOMAXPROCS(0).
	Shards int
	// SignatureBits is the partitioner's hyperplane count. Defaults to
	// DefaultSignatureBits, capped at lsh.MaxBits.
	SignatureBits int
	// Seed drives the partitioner's hyperplane draw, so a fixed seed
	// reproduces the same shard assignment. Reseed replaces it at
	// runtime.
	Seed uint64
	// New builds each shard's sub-cache. Required.
	New Factory
}

// slot is one shard position: the live sub-cache plus the counter
// baseline carried across sub-cache generations. The lock is held shared
// for every cache operation and exclusively only while a migration swaps
// or fills this slot, so distinct shards never contend and a migration
// blocks one shard at a time — never the world.
type slot struct {
	mu    sync.RWMutex
	cache core.Cache
	// base folds in the counters of retired sub-cache generations —
	// their index and tier blocks included, gauges zeroed — and the
	// corrections that keep migration re-inserts out of the Puts totals;
	// a slot's externally visible counters are always base +
	// cache.Stats().
	base core.Stats
}

// statsLocked returns the slot's externally visible counters; the caller
// holds mu.
func (s *slot) statsLocked() core.Stats {
	st := s.base
	st.Merge(s.cache.Stats())
	return st
}

// ShardedCache hash-partitions keys across independently-locked
// sub-caches. It satisfies core.Cache, so it drops into
// core.CachedRetriever wherever a FlatCache or LSHCache does. All methods
// are safe for concurrent use; distinct shards never contend.
type ShardedCache struct {
	slots   []slot
	factory Factory
	dim     int
	bits    int // the partitioner's hyperplane count

	// hasher is the partitioner. It is swapped atomically by Reseed, so
	// routing reads never lock.
	hasher atomic.Pointer[lsh.Hasher]
	seed   atomic.Uint64
	// migrateMu serializes the structural operations — Reseed and
	// Clear. A Clear overlapping a migration would otherwise be undone
	// piecemeal: the sweep re-inserts entries it enumerated before the
	// flush into slots the flush already emptied, and no ordering of
	// generation checks closes every interleaving. Reseed try-locks
	// (ErrMigrationInProgress rather than queueing); Clear waits — a
	// flush blocking for one migration's milliseconds beats a flush
	// that silently resurrects entries. Per-query operations never
	// touch this lock.
	migrateMu sync.Mutex
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
	bits := opts.SignatureBits
	if bits == 0 {
		bits = DefaultSignatureBits
	}
	if bits > lsh.MaxBits {
		bits = lsh.MaxBits
	}
	hasher, err := lsh.NewHasher(dim, bits, opts.Seed)
	if err != nil {
		return nil, err
	}
	c := &ShardedCache{
		slots:   make([]slot, n),
		factory: opts.New,
		dim:     dim,
		bits:    bits,
	}
	c.hasher.Store(hasher)
	c.seed.Store(opts.Seed)
	for i := range c.slots {
		sub, err := c.build(i)
		if err != nil {
			return nil, err
		}
		c.slots[i].cache = sub
	}
	return c, nil
}

// build makes shard i's sub-cache through the factory, for New and for
// Reseed's rebuild.
func (c *ShardedCache) build(i int) (core.Cache, error) {
	sub, err := c.factory(i)
	if err != nil {
		return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
	}
	if sub == nil {
		return nil, fmt.Errorf("shard: factory returned nil cache for shard %d", i)
	}
	return sub, nil
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

// NewIndexed creates a ShardedCache of graph-indexed sub-caches
// (core.IndexedCache). Like NewFlat, the configured capacity is the TOTAL
// across shards (split evenly, rounded up). Each shard's graph draws its
// own layer-assignment seed (seed + 1 + shard index); the partitioner
// uses seed directly.
func NewIndexed(dim, shards int, opts core.IndexedOptions, seed uint64) (*ShardedCache, error) {
	n, per := split(shards, opts.Capacity)
	return New(dim, Options{
		Shards: n,
		Seed:   seed,
		New: func(i int) (core.Cache, error) {
			sub := opts
			sub.Capacity = per
			sub.Seed = seed + 1 + uint64(i)
			return core.NewIndexed(dim, sub)
		},
	})
}

// NewTiered creates a ShardedCache of tiered sub-caches (tier.
// TieredCache): each shard composes its own hot in-memory cache over its
// own file-backed warm tier. The configured hot and warm capacities are
// TOTALS across shards (split evenly, rounded up). The partitioner uses
// seed. Reseed's retired generations release their warm record files on
// swap.
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

// ShardFor returns the shard index a query routes to. Deterministic for a
// fixed partitioner seed (Reseed re-draws it); exported for diagnostics
// and tests.
func (c *ShardedCache) ShardFor(q vec.Vector) int {
	return shardIndex(c.hasher.Load().Hash(q), len(c.slots))
}

// shardIndex reduces an LSH signature to a shard index. The signature
// MUST be avalanche-mixed before the modulo: a raw `sig % n` with a
// power-of-two shard count keeps only the low log2(n) bits, i.e. the
// signs of the first few hyperplanes — every other hyperplane (and most
// of a re-draw's entropy) would be dead weight, exactly the low-bit
// pathology the cluster ring's keyPos already corrects for. Shared by
// routing (ShardFor), migration (Reseed), and prediction (PreviewSeed),
// which must agree bit-for-bit.
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

// Seed returns the current partitioner seed (the construction seed until
// the first Reseed).
func (c *ShardedCache) Seed() uint64 { return c.seed.Load() }

// slotFor routes the query and returns its slot with the shared lock
// HELD (the caller unlocks). Routing is re-validated after the lock is
// acquired: a Reseed landing between the hash and the lock would
// otherwise direct this operation at a shard the migration has already
// swept — a Put there would be stranded where the new draw never looks
// until eviction. If the partitioner pointer is unchanged once the lock
// is held, any future swap's sweep must queue behind this lock and will
// carry the operation's effect along; if it changed, re-route under the
// new draw (in practice at most one retry per migration).
func (c *ShardedCache) slotFor(q vec.Vector) *slot {
	for {
		h := c.hasher.Load()
		s := &c.slots[shardIndex(h.Hash(q), len(c.slots))]
		s.mu.RLock()
		if c.hasher.Load() == h {
			return s
		}
		s.mu.RUnlock()
	}
}

// Get routes the query to its shard and looks it up there. Only that
// shard's lock is shared-held for the duration, so distinct shards never
// contend and a concurrent migration of this shard delays the lookup by
// at most one slot rebuild. A nil or wrong-length query is an uncounted
// miss.
func (c *ShardedCache) Get(q vec.Vector) ([]int, bool) {
	if len(q) != c.dim {
		return nil, false
	}
	s := c.slotFor(q)
	defer s.mu.RUnlock()
	return s.cache.Get(q)
}

// Put routes the entry to its shard and inserts it under the sub-cache's
// configured tolerance. A nil or wrong-length key is ignored.
func (c *ShardedCache) Put(q vec.Vector, docs []int) {
	if len(q) != c.dim {
		return
	}
	s := c.slotFor(q)
	defer s.mu.RUnlock()
	s.cache.Put(q, docs)
}

// PutWithTolerance routes the entry to its shard and inserts it with its
// own match threshold (§3.3.3's per-line dynamic tolerance). A nil or
// wrong-length key is ignored.
func (c *ShardedCache) PutWithTolerance(q vec.Vector, docs []int, tol float32) {
	if len(q) != c.dim {
		return
	}
	s := c.slotFor(q)
	defer s.mu.RUnlock()
	s.cache.PutWithTolerance(q, docs, tol)
}

// Len returns the total number of entries across shards.
func (c *ShardedCache) Len() int {
	total := 0
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.RLock()
		total += s.cache.Len()
		s.mu.RUnlock()
	}
	return total
}

// Capacity returns the summed capacity of all shards.
func (c *ShardedCache) Capacity() int {
	total := 0
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.RLock()
		total += s.cache.Capacity()
		s.mu.RUnlock()
	}
	return total
}

// NumShards returns the partition count.
func (c *ShardedCache) NumShards() int { return len(c.slots) }

// Shard returns the i-th sub-cache, for diagnostics and tests. A
// migration may retire the returned instance at any time; counters read
// directly from it miss the slot baseline, so use Stats().Shards for
// accounting.
func (c *ShardedCache) Shard(i int) core.Cache {
	s := &c.slots[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cache
}

// Stats aggregates counters across shards in one pass, one sub-cache
// Stats() per shard, so each shard's part of the snapshot — its index
// and tier blocks and its Shards row included — is read at one instant.
// Both blocks are always present, zero-valued where no shard has them.
// HashOps includes both the partitioner's routing projections and any
// hashing the sub-caches do; the routing share is derived from the
// operation counts (every Get and Put hashes once) rather than tracked
// on the hot path, so lookups on distinct shards share no mutable state
// at all.
func (c *ShardedCache) Stats() core.Stats {
	agg := core.Stats{Index: &core.IndexStats{}, Tier: &core.TierStats{},
		Shards: make([]core.ShardStats, len(c.slots))}
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.RLock()
		st := s.statsLocked()
		agg.Shards[i] = core.ShardStats{Entries: s.cache.Len(), Capacity: s.cache.Capacity(),
			Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, Evictions: st.Evictions}
		s.mu.RUnlock()
		agg.Merge(st)
	}
	agg.HashOps += (agg.Hits + agg.Misses + agg.Puts) * int64(c.bits)
	return agg
}

// Entries enumerates the combined contents of all shards (per-shard
// eviction order, shard order by index), so a sharded cache snapshots as
// one file through core.SaveSnapshot; replaying it routes each entry
// through the live partitioner.
func (c *ShardedCache) Entries() []core.Entry {
	var out []core.Entry
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.RLock()
		out = append(out, s.cache.Entries()...)
		s.mu.RUnlock()
	}
	return out
}

// Close releases per-shard resources (tiered sub-caches hold warm record
// files). Sub-caches without resources are unaffected. The cache must
// not be used afterwards.
func (c *ShardedCache) Close() error {
	var first error
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.Lock()
		if closer, ok := s.cache.(io.Closer); ok {
			if err := closer.Close(); first == nil {
				first = err
			}
		}
		s.mu.Unlock()
	}
	return first
}

// Clear removes all entries from every shard (counters are preserved by
// sub-caches that preserve them). Clear waits for any in-flight
// migration first, so its flush cannot be undone by migration
// deliveries re-inserting already-enumerated entries.
func (c *ShardedCache) Clear() {
	c.migrateMu.Lock()
	defer c.migrateMu.Unlock()
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.RLock()
		s.cache.Clear()
		s.mu.RUnlock()
	}
}
