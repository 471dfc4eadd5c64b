package core

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"proximity/internal/vec"
)

// FlatCache is Proximity-FLAT (§3.1, Algorithm 1): every lookup linearly
// scans all cached keys, returning the stored documents of the closest key
// when it lies within the tolerance. The scan makes lookups exact with
// respect to the cached set but costs O(c·d) per query, which Fig. 10 of
// the paper shows becoming prohibitive beyond a few thousand entries —
// the motivation for LSHCache.
type FlatCache struct {
	dim  int
	opts Options
	dist vec.DistanceFunc

	mu      sync.RWMutex
	entries []*flatEntry
	order   *list.List // eviction order; front = next to evict
	stats   Stats
	// distComps is accounted atomically (not under mu) so read-only
	// scans — Peek/PeekAdmissible under RLock — can run concurrently
	// while still charging their distance computations.
	distComps atomic.Int64
}

type flatEntry struct {
	key  vec.Vector
	docs []int
	tol  float32       // per-entry tolerance; the match threshold for this line
	elem *list.Element // position in eviction order; Value is *flatEntry
	idx  int           // position in entries (for O(1) removal)
}

var _ Cache = (*FlatCache)(nil)

// NewFlat creates a Proximity-FLAT cache for dim-dimensional query
// embeddings.
func NewFlat(dim int, opts Options) (*FlatCache, error) {
	opts.fillDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("core: dimension must be positive, got %d", dim)
	}
	return &FlatCache{
		dim:   dim,
		opts:  opts,
		dist:  opts.Metric.Func(),
		order: list.New(),
	}, nil
}

// Get scans all cached keys and returns the documents of the closest one
// within its tolerance (lines 2-5 of Algorithm 1). Entries inserted with
// Put use the cache-wide τ; PutWithTolerance entries use their own. Under
// LRU the matched entry's recency is refreshed.
//
//proximity:hotpath
func (c *FlatCache) Get(q vec.Vector) ([]int, bool) {
	if q == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	e, _ := c.scanAdmissible(q)
	if e == nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	if c.opts.Policy == LRU {
		c.order.MoveToBack(e.elem)
	}
	//proximity:allow hotpathalloc the budgeted caller-owned docs copy (Get's one allocation)
	out := make([]int, len(e.docs))
	copy(out, e.docs)
	return out, true
}

// Peek reports the distance to the closest cached key without affecting
// recency or hit/miss counters (the scan's distance computations are
// still charged). Used by multi-probe lookups, diagnostics, and tests.
// Peek mutates nothing, so it takes only a read lock: concurrent
// multi-probe bucket rankings scan in parallel instead of serializing.
func (c *FlatCache) Peek(q vec.Vector) (dist float32, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, d := c.scanClosest(q)
	return d, e != nil
}

// PeekAdmissible reports the distance to the closest cached key whose own
// tolerance admits the query, without affecting recency or hit/miss
// counters. Multi-probe lookups use it to rank candidate buckets; like
// Peek it holds only a read lock, so concurrent rankings don't serialize.
func (c *FlatCache) PeekAdmissible(q vec.Vector) (dist float32, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, d := c.scanAdmissible(q)
	return d, e != nil
}

// TierGet is the two-phase hot-tier lookup (see TierCache): it returns
// the closest admissible entry without counting a hit/miss or touching
// recency, plus a deferred Commit that applies those side effects if
// the tiered cache decides this candidate won. Distance computations
// are charged as usual.
//
//proximity:hotpath
func (c *FlatCache) TierGet(q vec.Vector) (TierHit, bool) {
	if q == nil {
		return TierHit{}, false
	}
	c.mu.RLock()
	e, d := c.scanAdmissible(q)
	if e == nil {
		c.mu.RUnlock()
		return TierHit{}, false
	}
	//proximity:allow hotpathalloc the budgeted caller-owned docs copy (TierGet's one allocation)
	docs := append([]int(nil), e.docs...)
	elem := e.elem
	c.mu.RUnlock()
	return TierHit{Docs: docs, Dist: d, src: c, elem: elem}, true
}

// commitTierHit applies a won TierGet's deferred side effects: the hit
// count and, under LRU, the recency refresh. MoveToBack no-ops if the
// entry was evicted between the lookup and the commit (its element left
// the list).
func (c *FlatCache) commitTierHit(elem *list.Element) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Hits++
	if c.opts.Policy == LRU {
		c.order.MoveToBack(elem)
	}
}

// scanAdmissible is the Algorithm 1 match: the closest entry whose own
// tolerance admits q, found by a linear scan that charges one distance
// computation per cached key. Ties keep the first-scanned entry, matching
// the paper's min_by_dist. Callers hold mu at least for reading.
//
// Under L2 a key wins only with d ≤ its tolerance and d < the best so
// far, so the kernel abandons it once its partial sum passes the smaller
// of the two; a key that survives gets the distance the full kernel
// gives, so the outcome is the unbounded scan's, bit for bit. Cosine and
// inner product have no monotone partial sum and finish every key.
func (c *FlatCache) scanAdmissible(q vec.Vector) (best *flatEntry, bestDist float32) {
	if c.opts.Metric == vec.L2Distance {
		for _, e := range c.entries {
			maxDist := e.tol
			if best != nil && bestDist < maxDist {
				maxDist = bestDist
			}
			if d, ok := vec.L2Bounded(q, e.key, maxDist); ok && d <= e.tol && (best == nil || d < bestDist) {
				best, bestDist = e, d
			}
		}
	} else {
		for _, e := range c.entries {
			if d := c.dist(q, e.key); d <= e.tol && (best == nil || d < bestDist) {
				best, bestDist = e, d
			}
		}
	}
	c.distComps.Add(int64(len(c.entries)))
	return best, bestDist
}

// scanClosest is the diagnostic scan behind Peek: the closest entry
// whatever its tolerance, with scanAdmissible's charging, tie-break and
// locking. Under L2 the bound is the best distance so far.
func (c *FlatCache) scanClosest(q vec.Vector) (best *flatEntry, bestDist float32) {
	if c.opts.Metric == vec.L2Distance {
		bestDist = float32(math.Inf(1))
		for _, e := range c.entries {
			if d, ok := vec.L2Bounded(q, e.key, bestDist); ok && (best == nil || d < bestDist) {
				best, bestDist = e, d
			}
		}
	} else {
		for _, e := range c.entries {
			if d := c.dist(q, e.key); best == nil || d < bestDist {
				best, bestDist = e, d
			}
		}
	}
	c.distComps.Add(int64(len(c.entries)))
	return best, bestDist
}

// Put inserts the query/documents pair under the cache-wide tolerance,
// evicting one entry if the cache is full (lines 7-9 of Algorithm 1).
func (c *FlatCache) Put(q vec.Vector, docs []int) {
	c.PutWithTolerance(q, docs, c.opts.Tolerance)
}

// PutWithTolerance inserts an entry with its own match threshold — the
// per-cache-line dynamic tolerance of Frieder et al. that §3.3.3
// discusses: a line whose original query had tightly-packed neighbors
// should only serve queries very close to it. Callers normally derive
// tol from the retrieved-neighbor distances (see RetrieverOptions.
// DynamicTolerance).
func (c *FlatCache) PutWithTolerance(q vec.Vector, docs []int, tol float32) {
	if q == nil || tol < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	if len(c.entries) >= c.opts.Capacity {
		c.evictLocked()
	}
	e := &flatEntry{
		key:  vec.Clone(q),
		docs: append([]int(nil), docs...),
		tol:  tol,
		idx:  len(c.entries),
	}
	e.elem = c.order.PushBack(e)
	c.entries = append(c.entries, e)
	c.stats.Puts++
}

// evictLocked removes the front of the eviction order: the oldest insert
// under FIFO, the least recently used entry under LRU.
func (c *FlatCache) evictLocked() {
	front := c.order.Front()
	if front == nil {
		return
	}
	victim, ok := front.Value.(*flatEntry)
	if !ok {
		// The order list only ever holds *flatEntry; reaching here
		// means internal corruption, so fail loudly.
		panic(fmt.Sprintf("core: unexpected eviction list element %T", front.Value))
	}
	c.order.Remove(front)
	// Swap-remove from the scan slice.
	last := len(c.entries) - 1
	c.entries[victim.idx] = c.entries[last]
	c.entries[victim.idx].idx = victim.idx
	c.entries = c.entries[:last]
	c.stats.Evictions++
	if c.opts.OnEvict != nil {
		// Ownership transfer: the victim's slices are unreachable from
		// the cache now, so the hook keeps them without copying.
		c.opts.OnEvict(Entry{Key: victim.key, Docs: victim.docs, Tol: victim.tol})
	}
}

// Len returns the number of cached entries.
func (c *FlatCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Capacity returns the configured capacity c.
func (c *FlatCache) Capacity() int { return c.opts.Capacity }

// Tolerance returns the configured similarity threshold τ.
func (c *FlatCache) Tolerance() float32 { return c.opts.Tolerance }

// Policy returns the eviction policy.
func (c *FlatCache) Policy() Policy { return c.opts.Policy }

// Stats returns a snapshot of the counters.
func (c *FlatCache) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.stats
	s.DistComps = c.distComps.Load()
	return s
}

// Clear drops all entries, preserving counters.
func (c *FlatCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = nil
	c.order.Init()
}

// Entries returns copies of the cached lines in eviction order (front,
// i.e. next to evict, first), so re-inserting them in order reproduces
// the same eviction sequence. Implements EntrySource; O(c·d).
func (c *FlatCache) Entries() []Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Entry, 0, len(c.entries))
	for el := c.order.Front(); el != nil; el = el.Next() {
		e, ok := el.Value.(*flatEntry)
		if !ok {
			panic(fmt.Sprintf("core: unexpected eviction list element %T", el.Value))
		}
		out = append(out, Entry{
			Key:  vec.Clone(e.key),
			Docs: append([]int(nil), e.docs...),
			Tol:  e.tol,
		})
	}
	return out
}
