// Package shard horizontally partitions a Proximity cache across N
// independently-locked sub-caches, removing the single-mutex bottleneck
// that serializes FlatCache and LSHCache lookups under concurrent load.
// The paper's middleware deployment (Fig. 4) serves many clients at once;
// serving-oriented RAG caches (RAGCache, Cache-Craft) show that lock
// contention, not mean lookup cost, dominates tail latency at scale.
//
// Keys are routed to shards by either an LSH signature (the default:
// similar queries collide on the same shard with high probability, so
// approximate hits survive partitioning) or a byte fingerprint (exact
// repeats only, but perfectly uniform spread). Each shard is any
// core.Cache — FLAT or LSH — built by a per-shard factory, and the whole
// structure satisfies core.Cache, making ShardedCache a drop-in for
// core.CachedRetriever.
//
// A skewed query stream can still concentrate signatures on a few shards
// (the eviction-pressure report's Imbalance makes this visible). Under
// LSH-signature routing the partitioner is re-drawable at runtime:
// Reseed re-draws the hyperplanes and migrates entries shard-by-shard
// without a stop-the-world lock, and PreviewSeed predicts a candidate
// seed's imbalance before committing to a migration. See migrate.go and
// internal/rebalance for the controller that closes the loop.
package shard

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"proximity/internal/core"
	"proximity/internal/lsh"
	"proximity/internal/tier"
	"proximity/internal/vec"
)

// Partition selects the key-to-shard routing strategy.
type Partition int

const (
	// LSHSignature routes by a random-hyperplane signature reduced
	// modulo the shard count. Queries within the cache tolerance share
	// a signature with high probability, so approximate hits survive
	// sharding — the same locality argument as Proximity-LSH itself
	// (§3.2). This is the default.
	LSHSignature Partition = iota + 1
	// Fingerprint routes by an FNV-1a hash of the embedding bytes.
	// Spread across shards is uniform regardless of embedding
	// geometry, but only byte-identical repeats land on the same
	// shard, so approximate matches across rephrasings are lost.
	Fingerprint
)

// String implements fmt.Stringer.
func (p Partition) String() string {
	switch p {
	case LSHSignature:
		return "lsh"
	case Fingerprint:
		return "fingerprint"
	default:
		return fmt.Sprintf("partition(%d)", int(p))
	}
}

// ParsePartition converts a string into a Partition.
func ParsePartition(s string) (Partition, error) {
	switch s {
	case "lsh":
		return LSHSignature, nil
	case "fingerprint":
		return Fingerprint, nil
	default:
		return 0, fmt.Errorf("shard: unknown partition strategy %q", s)
	}
}

// Factory builds the sub-cache for one shard index. Factories let any
// core.Cache variant that also implements core.EntrySource back a shard
// (New refuses others with ErrNotMigratable); the helpers in this
// package cover the FLAT, LSH, indexed and tiered cases. The factory is retained for the lifetime of the
// ShardedCache: a re-draw migration (Reseed) rebuilds shards through it.
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
	// Partition is the routing strategy. Defaults to LSHSignature.
	Partition Partition
	// SignatureBits is the hyperplane count of the LSHSignature
	// partitioner (ignored by Fingerprint). Defaults to
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
	cache subCache
	// base folds in the counters of retired sub-cache generations —
	// their index and tier blocks included, gauges zeroed — and the
	// corrections that keep migration re-inserts out of the Puts totals;
	// a slot's externally visible counters are always base +
	// cache.Stats().
	base core.Stats
}

// subCache is what a slot holds: a cache that also enumerates its
// entries, which Reseed's migration and Entries (the one-file snapshot)
// read. build checks it once per sub-cache.
type subCache interface {
	core.Cache
	core.EntrySource
}

// statsLocked returns the slot's externally visible counters; the caller
// holds mu.
func (s *slot) statsLocked() core.Stats {
	st := s.base
	st.Merge(s.cache.Stats())
	return st
}

// stats is statsLocked under the shared lock.
func (s *slot) stats() core.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.statsLocked()
}

// ShardedCache hash-partitions keys across independently-locked
// sub-caches. It satisfies core.Cache, so it drops into
// core.CachedRetriever wherever a FlatCache or LSHCache does. All methods
// are safe for concurrent use; distinct shards never contend.
type ShardedCache struct {
	slots   []slot
	part    Partition
	factory Factory
	dim     int
	bits    int // LSHSignature hyperplane count; 0 under Fingerprint

	// hasher is the LSHSignature partitioner (nil under Fingerprint).
	// It is swapped atomically by Reseed, so routing reads never lock.
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
	if opts.Partition == 0 {
		opts.Partition = LSHSignature
	}
	c := &ShardedCache{
		slots:   make([]slot, n),
		part:    opts.Partition,
		factory: opts.New,
		dim:     dim,
	}
	switch opts.Partition {
	case LSHSignature:
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
		c.bits = bits
		c.hasher.Store(hasher)
		c.seed.Store(opts.Seed)
	case Fingerprint:
		// No partitioner state needed.
	default:
		return nil, fmt.Errorf("shard: unknown partition strategy %d", int(opts.Partition))
	}
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
// Reseed's rebuild. A sub-cache that cannot enumerate its entries could
// be neither migrated nor snapshotted, so it is refused here with
// ErrNotMigratable.
func (c *ShardedCache) build(i int) (subCache, error) {
	sub, err := c.factory(i)
	if err != nil {
		return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
	}
	if sub == nil {
		return nil, fmt.Errorf("shard: factory returned nil cache for shard %d", i)
	}
	src, ok := sub.(subCache)
	if !ok {
		return nil, fmt.Errorf("shard %d: %w (%T)", i, ErrNotMigratable, sub)
	}
	return src, nil
}

// NewFlat creates a ShardedCache of FLAT sub-caches. The configured
// capacity is the TOTAL across shards (split evenly, rounded up), so the
// result is a drop-in replacement for a single FlatCache of the same
// capacity. seed drives the shard partitioner.
func NewFlat(dim, shards int, opts core.Options, seed uint64) (*ShardedCache, error) {
	// Resolve the shard count once so the per-shard capacity split and
	// the built partition count can never diverge.
	n := shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	per := opts.Capacity / n
	if opts.Capacity%n != 0 {
		per++
	}
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
	n := shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	per := opts.Capacity / n
	if opts.Capacity%n != 0 {
		per++
	}
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
	n := shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	splitUp := func(total int) int {
		per := total / n
		if total%n != 0 {
			per++
		}
		return per
	}
	hot, warm := splitUp(opts.HotCapacity), splitUp(opts.WarmCapacity)
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
	switch c.part {
	case Fingerprint:
		return int(FingerprintOf(q) % uint32(len(c.slots)))
	default:
		return shardIndex(c.hasher.Load().Hash(q), len(c.slots))
	}
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

// SignatureBits returns the partitioner's hyperplane count (0 under
// Fingerprint routing).
func (c *ShardedCache) SignatureBits() int { return c.bits }

// FingerprintOf is FNV-1a over the embedding's float bits — the exact-
// match routing key. Shared with the batch pipeline (internal/batch),
// which uses it to detect byte-identical in-flight duplicates.
func FingerprintOf(q vec.Vector) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, f := range q {
		bits := math.Float32bits(f)
		for s := 0; s < 32; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime32
		}
	}
	return h
}

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
	n := uint32(len(c.slots))
	if c.part == Fingerprint {
		s := &c.slots[FingerprintOf(q)%n]
		s.mu.RLock()
		return s
	}
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

// Partition returns the routing strategy.
func (c *ShardedCache) Partition() Partition { return c.part }

// Shard returns the i-th sub-cache, for diagnostics and tests. A
// migration may retire the returned instance at any time; counters read
// directly from it miss the slot baseline, so use ShardStats for
// accounting.
func (c *ShardedCache) Shard(i int) core.Cache {
	s := &c.slots[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cache
}

// ShardStats returns a per-shard snapshot of the cumulative counters,
// including counters carried over from sub-cache generations a migration
// has retired.
func (c *ShardedCache) ShardStats() []core.Stats {
	out := make([]core.Stats, len(c.slots))
	for i := range c.slots {
		out[i] = c.slots[i].stats()
	}
	return out
}

// Stats aggregates counters across shards in one pass, one sub-cache
// Stats() per shard, so each shard's part of the snapshot — its index
// and tier blocks included — is read at one instant. Both blocks are
// always present, zero-valued where no shard has them. HashOps includes
// both the partitioner's routing projections and any hashing the
// sub-caches do; the routing share is derived from the operation counts
// (every Get and Put hashes once) rather than tracked on the hot path,
// so lookups on distinct shards share no mutable state at all.
func (c *ShardedCache) Stats() core.Stats {
	agg := core.Stats{Index: &core.IndexStats{}, Tier: &core.TierStats{}}
	for i := range c.slots {
		agg.Merge(c.slots[i].stats())
	}
	if c.part == LSHSignature {
		agg.HashOps += (agg.Hits + agg.Misses + agg.Puts) * int64(c.bits)
	}
	return agg
}

// Entries enumerates the combined contents of all shards (per-shard
// eviction order, shard order by index). Implements core.EntrySource, so
// a sharded cache snapshots as one file through core.SaveSnapshot;
// replaying it routes each entry through the live partitioner.
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
