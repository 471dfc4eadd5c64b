package core

import (
	"fmt"
	"sync"

	"proximity/internal/lsh"
	"proximity/internal/vec"
)

// LSHCache is Proximity-LSH (§3.2): an incoming query is hashed with L
// random hyperplanes, and only the single bucket selected by the L-bit
// signature is scanned. Each bucket is a fixed-capacity FlatCache of b
// entries with its own local eviction, making the whole structure a
// b-way set-associative cache whose lookup cost O((L+b)·d) is independent
// of the total capacity 2^L·b.
//
// Buckets are allocated lazily: with skewed workloads most signatures
// never occur, so actual memory tracks usage rather than the theoretical
// maximum (§3.3.1, Fig. 9).
type LSHCache struct {
	hasher *lsh.Hasher
	bucket Options // per-bucket options; Capacity = b
	probes int     // buckets examined per lookup (≥ 1)
	seed   uint64  // hyperplane seed, preserved for snapshots

	mu            sync.RWMutex
	buckets       map[uint32]*FlatCache
	hashOps       int64
	missesOnEmpty int64 // lookups that ended without a counted bucket lookup
	cleared       Stats // counters of the buckets Clear has dropped
}

var _ Cache = (*LSHCache)(nil)

// LSHOptions configures an LSHCache.
type LSHOptions struct {
	// Bits is the number of random hyperplanes L (buckets = 2^L). The
	// paper evaluates L ∈ {4, 6, 8, 10} and uses 8 by default.
	Bits int
	// BucketCapacity is the per-bucket entry limit b. The paper finds
	// b = 20 the best balance of hit rate and scan cost (§4.3.5).
	BucketCapacity int
	// Tolerance is the similarity threshold τ applied within the
	// selected bucket.
	Tolerance float32
	// Policy is the per-bucket eviction strategy.
	Policy Policy
	// Seed drives the hyperplane draw.
	Seed uint64
	// Probes enables multi-probe lookups: in addition to the query's
	// own bucket, up to Probes-1 buckets at Hamming distance 1 are
	// scanned, recovering hits lost when a rephrasing straddles a
	// hyperplane. 0 or 1 means single-probe (the paper's design);
	// multi-probe is the natural extension §3.2 hints at, trading
	// extra scans (still O(Probes·b·d), capacity-independent) for hit
	// rate. Capped at Bits+1 (the base bucket plus one flip per bit).
	Probes int
	// OnEvict observes per-bucket capacity evictions (see
	// Options.OnEvict); bucket-local displacement under skew fires it
	// even while the cache as a whole is far from its theoretical
	// capacity. Runs under the bucket's lock.
	OnEvict func(Entry)
}

// DefaultBucketCapacity is the paper's recommended per-bucket size.
const DefaultBucketCapacity = 20

// NewLSH creates a Proximity-LSH cache for dim-dimensional embeddings.
func NewLSH(dim int, opts LSHOptions) (*LSHCache, error) {
	if opts.BucketCapacity == 0 {
		opts.BucketCapacity = DefaultBucketCapacity
	}
	hasher, err := lsh.NewHasher(dim, opts.Bits, opts.Seed)
	if err != nil {
		return nil, err
	}
	bucket := Options{
		Capacity:  opts.BucketCapacity,
		Tolerance: opts.Tolerance,
		Policy:    opts.Policy,
		OnEvict:   opts.OnEvict,
	}
	bucket.fillDefaults()
	if err := bucket.validate(); err != nil {
		return nil, err
	}
	if opts.Probes < 0 {
		return nil, fmt.Errorf("core: probes must be non-negative, got %d", opts.Probes)
	}
	probes := opts.Probes
	if probes == 0 {
		probes = 1
	}
	if max := opts.Bits + 1; probes > max {
		probes = max
	}
	return &LSHCache{
		hasher:  hasher,
		bucket:  bucket,
		probes:  probes,
		seed:    opts.Seed,
		buckets: make(map[uint32]*FlatCache),
	}, nil
}

// Get hashes the query (cost O(L·d)) and scans only its bucket (cost
// O(b·d)); with multi-probe enabled, up to Probes buckets in increasing
// Hamming distance are scanned and the globally closest match wins. An
// unallocated bucket costs nothing — the false-positive containment
// property §3.2 highlights. A nil or wrong-length query is an uncounted
// miss.
func (c *LSHCache) Get(q vec.Vector) ([]int, bool) {
	if len(q) != c.hasher.Dim() {
		return nil, false
	}
	b := c.winningBucket(q)
	if b == nil {
		// Count the miss so hit-rate accounting stays exact even
		// though no bucket ran a counted lookup.
		c.mu.Lock()
		c.missesOnEmpty++
		c.mu.Unlock()
		return nil, false
	}
	// The counted lookup (touches LRU). After a multi-bucket ranking a
	// concurrent eviction may turn it into a miss, which the bucket
	// then counts itself.
	return b.Get(q)
}

// winningBucket hashes q and returns the bucket its lookup should run
// on, or nil when there is none. When the probe sequence holds a single
// allocated bucket — always, at the default single probe — that bucket
// is returned unscanned: the caller's lookup is then the only scan, and
// the bucket counts the outcome. With several, each is ranked by its
// closest admissible key (a read-locked scan) and the bucket holding the
// overall closest wins; nil then means no probed bucket admits q.
func (c *LSHCache) winningBucket(q vec.Vector) *FlatCache {
	if c.probes == 1 {
		sig := c.hasher.Hash(q)
		c.mu.Lock()
		c.hashOps += int64(c.hasher.Bits())
		b := c.buckets[sig]
		c.mu.Unlock()
		return b
	}
	probeSigs := c.hasher.ProbeSequence(q)[:c.probes]
	c.mu.Lock()
	c.hashOps += int64(c.hasher.Bits())
	candidates := make([]*FlatCache, 0, len(probeSigs))
	for _, sig := range probeSigs {
		if b := c.buckets[sig]; b != nil {
			candidates = append(candidates, b)
		}
	}
	c.mu.Unlock()
	if len(candidates) == 1 {
		return candidates[0]
	}
	var (
		best     *FlatCache
		bestDist float32
	)
	for _, b := range candidates {
		if d, ok := b.PeekAdmissible(q); ok && (best == nil || d < bestDist) {
			best, bestDist = b, d
		}
	}
	return best
}

// TierGet is the two-phase hot-tier lookup (see TierCache): the probe
// sequence is ranked exactly like Get's, but the winning bucket's hit
// bookkeeping (hit counter, LRU refresh) is deferred to Commit. Lookups
// that find no admissible entry return false without counting a miss.
func (c *LSHCache) TierGet(q vec.Vector) (TierHit, bool) {
	if len(q) != c.hasher.Dim() {
		return TierHit{}, false
	}
	b := c.winningBucket(q)
	if b == nil {
		return TierHit{}, false
	}
	return b.TierGet(q)
}

// Put hashes the query and inserts into its bucket under the cache-wide
// tolerance, allocating the bucket on first use.
func (c *LSHCache) Put(q vec.Vector, docs []int) {
	c.PutWithTolerance(q, docs, c.bucket.Tolerance)
}

// PutWithTolerance inserts an entry with its own match threshold (see
// FlatCache.PutWithTolerance). A nil or wrong-length key, and one with
// a NaN or ±Inf component, is ignored before it is hashed, so it
// allocates no bucket.
func (c *LSHCache) PutWithTolerance(q vec.Vector, docs []int, tol float32) {
	if len(q) != c.hasher.Dim() || !vec.Finite(q) {
		return
	}
	sig := c.hasher.Hash(q)
	c.mu.Lock()
	c.hashOps += int64(c.hasher.Bits())
	b := c.buckets[sig]
	if b == nil {
		nb, err := NewFlat(c.hasher.Dim(), c.bucket)
		if err != nil {
			// The bucket options were validated at construction;
			// failure here is unreachable.
			c.mu.Unlock()
			panic(fmt.Sprintf("core: bucket construction failed: %v", err))
		}
		b = nb
		c.buckets[sig] = b
	}
	c.mu.Unlock()
	b.PutWithTolerance(q, docs, tol)
}

// Len returns the total number of entries across allocated buckets.
func (c *LSHCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, b := range c.buckets {
		total += b.Len()
	}
	return total
}

// Capacity returns the theoretical maximum 2^L·b (§3.3.1).
func (c *LSHCache) Capacity() int {
	return c.hasher.NumBuckets() * c.bucket.Capacity
}

// BucketsUsed returns the number of lazily-allocated buckets.
func (c *LSHCache) BucketsUsed() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.buckets)
}

// BucketCapacity returns the per-bucket entry limit b.
func (c *LSHCache) BucketCapacity() int { return c.bucket.Capacity }

// Bits returns the signature width L.
func (c *LSHCache) Bits() int { return c.hasher.Bits() }

// Probes returns the number of buckets examined per lookup.
func (c *LSHCache) Probes() int { return c.probes }

// Tolerance returns the similarity threshold τ.
func (c *LSHCache) Tolerance() float32 { return c.bucket.Tolerance }

// Policy returns the per-bucket eviction policy.
func (c *LSHCache) Policy() Policy { return c.bucket.Policy }

// RelativeOccupancy returns Len()/Capacity(), the Fig. 9(a) metric.
func (c *LSHCache) RelativeOccupancy() float64 {
	return float64(c.Len()) / float64(c.Capacity())
}

// Stats aggregates counters across buckets, adding misses on unallocated
// buckets and hyperplane hash operations.
func (c *LSHCache) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	agg := c.bucketStatsLocked()
	agg.Misses += c.missesOnEmpty
	agg.HashOps = c.hashOps
	return agg
}

// bucketStatsLocked sums the per-bucket counters, of the live buckets
// and of those Clear dropped.
func (c *LSHCache) bucketStatsLocked() Stats {
	agg := c.cleared
	for _, b := range c.buckets {
		agg.Merge(b.Stats())
	}
	return agg
}

// Entries returns copies of the cached lines: within each bucket in
// eviction order, with bucket order immaterial (signatures re-derive from
// the keys).
func (c *LSHCache) Entries() []Entry {
	c.mu.RLock()
	buckets := make([]*FlatCache, 0, len(c.buckets))
	for _, b := range c.buckets {
		buckets = append(buckets, b)
	}
	c.mu.RUnlock()
	var out []Entry
	for _, b := range buckets {
		out = b.appendEntries(out)
	}
	return out
}

// Clear drops all buckets, folding their counters into cleared first so
// that Stats survives as the Cache contract promises.
func (c *LSHCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cleared = c.bucketStatsLocked()
	c.buckets = make(map[uint32]*FlatCache)
}
