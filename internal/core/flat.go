package core

import (
	"fmt"
	"math"
	"slices"
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
//
// The lines live in parallel arrays indexed by slot, slots 0..Len()-1
// live: each key's first vec.HeadLen floats in a vec.Heads (64 B per
// line, 64 KB at c = 1 000, block-major in blocks of eight lines), the
// tolerances, each tolerance's vec.SquaredBound, insertion stamps, and
// the rest of each line (key, documents, eviction-order links) in
// slots. A scan hands the bounds to the heads' Next, which tests eight
// heads at a time, and reads a key only when its head alone does not
// rule it out, so a lookup streams dense arrays instead of chasing a
// pointer per key.
// Each key is its own allocation, reused by an evicting Put: one slab of
// whole keys would be a large object, rounded up to whole pages, which
// costs a 20-line LSH bucket of 768-d keys 4 KB. Eviction moves the last
// slot into the victim's, so the slots stay dense. The arrays grow by
// doubling up to Capacity slots.
type FlatCache struct {
	dim  int
	opts Options

	mu          sync.RWMutex
	heads       vec.Heads // slot i's first vec.HeadLen floats; none below that dimension
	tols        []float32 // slot i's tolerance, the match threshold for its line
	bounds      []float32 // vec.SquaredBound(tols[i]), what slot i's head is tested against
	slots       []flatSlot
	stamps      []uint32   // slot i's insertion stamp, so a TierHit can tell its line still holds the slot
	front, back int32      // ends of the eviction order: front is next to evict
	spare       vec.Vector // the last victim's key, when no OnEvict took it
	stamp       uint32     // the last insertion stamp handed out; wrapping needs 2³² Puts before a Commit
	stats       Stats
	// distComps is accounted atomically (not under mu) so read-only
	// scans — PeekAdmissible and TierGet under RLock — can run
	// concurrently while still charging their distance computations.
	distComps atomic.Int64
}

// flatSlot is the part of a line a scan reads only for a key its head
// did not rule out, or to serve, move or enumerate the line.
type flatSlot struct {
	key        vec.Vector
	docs       []int
	prev, next int32 // neighbours in eviction order; noSlot past either end
}

const noSlot int32 = -1

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
	return &FlatCache{dim: dim, opts: opts, heads: vec.NewHeads(dim, opts.Capacity), front: noSlot, back: noSlot}, nil
}

// Get scans all cached keys and returns the documents of the closest one
// within its tolerance (lines 2-5 of Algorithm 1). Entries inserted with
// Put use the cache-wide τ; PutWithTolerance entries use their own. Under
// LRU the matched entry's recency is refreshed. A nil or wrong-length
// query is an uncounted miss.
//
//proximity:hotpath
func (c *FlatCache) Get(q vec.Vector) ([]int, bool) {
	if len(q) != c.dim {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	i, _ := c.scanAdmissible(q)
	if i < 0 {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	if c.opts.Policy == LRU {
		c.moveToBack(int32(i))
	}
	//proximity:allow hotpathalloc the budgeted caller-owned docs copy (Get's one allocation)
	out := make([]int, len(c.slots[i].docs))
	copy(out, c.slots[i].docs)
	return out, true
}

// PeekAdmissible reports the distance to the closest cached key whose own
// tolerance admits the query, without affecting recency or hit/miss
// counters (the scan's distance computations are still charged).
// Multi-probe lookups use it to rank candidate buckets; it holds only a
// read lock, so concurrent rankings don't serialize.
func (c *FlatCache) PeekAdmissible(q vec.Vector) (dist float32, ok bool) {
	if len(q) != c.dim {
		return 0, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, d := c.scanAdmissible(q)
	return d, i >= 0
}

// TierGet is the two-phase hot-tier lookup (see TierCache): it returns
// the closest admissible entry without counting a hit/miss or touching
// recency, plus a deferred Commit that applies those side effects if
// the tiered cache decides this candidate won. Distance computations
// are charged as usual.
//
//proximity:hotpath
func (c *FlatCache) TierGet(q vec.Vector) (TierHit, bool) {
	if len(q) != c.dim {
		return TierHit{}, false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, d := c.scanAdmissible(q)
	if i < 0 {
		return TierHit{}, false
	}
	//proximity:allow hotpathalloc the budgeted caller-owned docs copy (TierGet's one allocation)
	docs := append([]int(nil), c.slots[i].docs...)
	return TierHit{Docs: docs, Dist: d, src: c, slot: i, stamp: c.stamps[i]}, true
}

// commitTierHit applies a won TierGet's deferred side effects: the hit
// count and, under LRU, the recency refresh. The refresh no-ops if the
// hit's slot no longer holds the line it was taken from.
func (c *FlatCache) commitTierHit(h TierHit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Hits++
	if c.opts.Policy == LRU && h.slot < len(c.stamps) && c.stamps[h.slot] == h.stamp {
		c.moveToBack(int32(h.slot))
	}
}

// scanAdmissible is the Algorithm 1 match: the slot of the closest entry
// whose own tolerance admits q (-1 if none), found by a linear scan in
// slot order that charges one distance computation per cached key. Ties
// keep the first-scanned entry, matching the paper's min_by_dist.
// Callers hold mu at least for reading.
//
// A key wins only with d ≤ its tolerance and d < the best so far, so the
// L2 kernel abandons it once its partial sum passes the smaller of the
// two; a key that survives gets the distance the full kernel gives, so
// the outcome is the unbounded scan's, bit for bit. The heads' Next
// skips every key whose head sum exceeds its bound or limit =
// vec.SquaredBound(best so far) without reading its row. As
// SquaredBound is monotone, that is a head sum above SquaredBound of the
// smaller distance, exactly where vec.L2Bounded would abandon at its
// first check.
func (c *FlatCache) scanAdmissible(q vec.Vector) (best int, bestDist float32) {
	best = -1
	n := len(c.tols)
	c.distComps.Add(int64(n))
	limit := float32(math.Inf(1))
	var cur vec.HeadCursor
	for i := 0; i < n; i++ {
		if i = c.heads.Next(&cur, q, c.bounds, i, limit); i == n {
			break
		}
		tol := c.tols[i]
		maxDist := tol
		if best >= 0 && bestDist < maxDist {
			maxDist = bestDist
		}
		if d, ok := vec.L2Bounded(q, c.slots[i].key, maxDist); ok && d <= tol && (best < 0 || d < bestDist) {
			best, bestDist = i, d
			limit = vec.SquaredBound(d)
		}
	}
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
// DynamicTolerance). A nil or wrong-length key, a key with a NaN or
// ±Inf component (its distance to every query is NaN or +Inf, so no
// lookup could be served from it), and a negative or NaN tol, is
// ignored.
func (c *FlatCache) PutWithTolerance(q vec.Vector, docs []int, tol float32) {
	if len(q) != c.dim || !(tol >= 0) || !vec.Finite(q) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	if len(c.tols) >= c.opts.Capacity {
		c.evictLocked()
	}
	key := append(c.spare[:0], q...) // the victim's key, when there was one
	c.spare = nil
	limit := c.opts.Capacity
	c.heads.Set(len(c.tols), q)
	c.tols = appendSlot(c.tols, limit, tol)
	c.bounds = appendSlot(c.bounds, limit, vec.SquaredBound(tol))
	c.slots = appendSlot(c.slots, limit, flatSlot{key: key, docs: append([]int(nil), docs...)})
	c.stamp++
	c.stamps = appendSlot(c.stamps, limit, c.stamp)
	i := int32(len(c.slots) - 1)
	c.link(c.back, i)
	c.link(i, noSlot)
	c.stats.Puts++
}

// appendSlot appends one slot's element to s, growing its backing
// array by doubling but never past limit slots, so a full cache holds
// exactly Capacity slots and an empty one nothing.
func appendSlot[T any](s []T, limit int, x T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), min(max(2*cap(s), 1), limit))
		copy(grown, s)
		s = grown
	}
	return append(s, x)
}

// evictLocked removes the front of the eviction order — the oldest
// insert under FIFO, the least recently used entry under LRU — and moves
// the last slot into its place.
func (c *FlatCache) evictLocked() {
	v := c.front
	if v == noSlot {
		return
	}
	victim, tol := c.slots[v], c.tols[v]
	c.link(victim.prev, victim.next)
	n := len(c.slots) - 1 // the last slot, which moves into v
	if int(v) != n {
		c.slots[v], c.tols[v], c.bounds[v], c.stamps[v] = c.slots[n], c.tols[n], c.bounds[n], c.stamps[n]
		c.heads.Move(int(v), n)
		c.link(c.slots[v].prev, v)
		c.link(v, c.slots[v].next)
	}
	c.slots[n] = flatSlot{}
	c.slots, c.tols, c.bounds, c.stamps = c.slots[:n], c.tols[:n], c.bounds[:n], c.stamps[:n]
	c.stats.Evictions++
	if c.opts.OnEvict != nil {
		// Ownership transfer: the victim's slices are unreachable from
		// the cache now, so the hook keeps them without copying.
		c.opts.OnEvict(Entry{Key: victim.key, Docs: victim.docs, Tol: tol})
	} else {
		c.spare = victim.key
	}
}

// link makes slot n follow slot p in the eviction order; noSlot for p or
// n stands for the front or the back end.
func (c *FlatCache) link(p, n int32) {
	if p == noSlot {
		c.front = n
	} else {
		c.slots[p].next = n
	}
	if n == noSlot {
		c.back = p
	} else {
		c.slots[n].prev = p
	}
}

// moveToBack refreshes slot i to the back of the eviction order.
func (c *FlatCache) moveToBack(i int32) {
	if i != c.back {
		c.link(c.slots[i].prev, c.slots[i].next)
		c.link(c.back, i)
		c.link(i, noSlot)
	}
}

// Len returns the number of cached entries.
func (c *FlatCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tols)
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

// Clear drops all entries and their storage, preserving counters.
func (c *FlatCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heads.Reset()
	c.tols, c.bounds, c.slots, c.stamps, c.spare = nil, nil, nil, nil, nil
	c.front, c.back = noSlot, noSlot
}

// Entries returns copies of the cached lines in eviction order (front,
// i.e. next to evict, first), so re-inserting them in order reproduces
// the same eviction sequence. Implements EntrySource; O(c·d).
func (c *FlatCache) Entries() []Entry { return c.appendEntries(nil) }

// appendEntries appends copies of the cached lines to out in eviction
// order: the one walk over the slot links, behind Entries and the
// snapshot writers.
func (c *FlatCache) appendEntries(out []Entry) []Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := c.front; i != noSlot; i = c.slots[i].next {
		out = append(out, Entry{Key: vec.Clone(c.slots[i].key), Docs: slices.Clone(c.slots[i].docs), Tol: c.tols[i]})
	}
	return out
}
