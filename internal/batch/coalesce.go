package batch

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"proximity/internal/telemetry"
	"proximity/internal/vec"
)

// Searcher is the minimal search surface the coalescer fronts — satisfied
// by a Pipeline or any vectordb.DB.
type Searcher interface {
	Search(q vec.Vector, k int) ([]vec.Scored, error)
}

// KeyFunc maps a query to its coalescing fingerprint. Requests with equal
// (fingerprint, k) that overlap in time share one inner search.
type KeyFunc func(q vec.Vector) uint32

// CoalesceStats are cumulative coalescer counters.
type CoalesceStats struct {
	// Leads counts requests that performed the inner search.
	Leads int64
	// Coalesced counts requests served from another request's flight.
	Coalesced int64
	// Collisions counts requests whose fingerprint matched an in-flight
	// search but whose embedding did not (verified mode only); they
	// searched independently rather than receive another query's
	// documents.
	Collisions int64
}

// Rate returns the fraction of requests served without an inner search.
func (s CoalesceStats) Rate() float64 {
	if n := s.Leads + s.Coalesced; n > 0 {
		return float64(s.Coalesced) / float64(n)
	}
	return 0
}

// flight is one in-progress inner search shared by duplicate requests.
type flight struct {
	q       vec.Vector // the leader's embedding, for collision verification
	traceID uint64     // the leader's trace ID (0 if the leader is unsampled)
	done    chan struct{}
	res     []vec.Scored
	err     error
}

// Coalescer deduplicates concurrent identical (or, with an LSH-signature
// key, near-identical) searches: the first request with a given
// (fingerprint, k) becomes the leader and performs the inner search;
// requests arriving while it is in flight wait and receive a private copy
// of its results. Sequential duplicates are NOT deduplicated — that is
// the cache's job; the coalescer only collapses races between concurrent
// misses. Safe for concurrent use.
// flightKey identifies one joinable flight. The generation changes on
// every SetKey, so flights filed under a retired key function are never
// joined by requests hashed with the new one — numeric key equality
// across two different draws carries no similarity guarantee at all.
type flightKey struct {
	gen uint32
	key uint32
	k   int
}

// keyState pairs the key function with its generation in one value, so
// a reader can never observe a new function with an old generation (or
// vice versa) — either tear would reopen the cross-draw join window.
type keyState struct {
	fn  KeyFunc
	gen uint32
}

type Coalescer struct {
	inner  Searcher
	key    atomic.Pointer[keyState] // swapped whole by SetKey; read lock-free
	genCtr atomic.Uint32            // mints a unique generation per SetKey
	verify bool                     // require embedding equality, not just key equality
	tel    *telemetry.Telemetry     // optional: coalesce_wait stage observations

	mu       sync.Mutex
	inflight map[flightKey]*flight
	stats    CoalesceStats
}

// NewCoalescer creates a singleflight front for inner, keyed by key.
// Requests whose keys match are assumed to be interchangeable — the
// right semantics for a locality-sensitive key such as an LSH signature,
// where near-identical queries are meant to share a flight.
func NewCoalescer(inner Searcher, key KeyFunc) (*Coalescer, error) {
	return newCoalescer(inner, key, false)
}

// NewVerifiedCoalescer is NewCoalescer for keys that promise exact
// deduplication (e.g. a byte fingerprint): a request joins a flight only
// if its embedding equals the leader's, so a hash collision degrades to
// an independent search instead of silently serving — and then caching —
// another query's documents.
func NewVerifiedCoalescer(inner Searcher, key KeyFunc) (*Coalescer, error) {
	return newCoalescer(inner, key, true)
}

func newCoalescer(inner Searcher, key KeyFunc, verify bool) (*Coalescer, error) {
	if inner == nil {
		return nil, errors.New("batch: coalescer requires an inner searcher")
	}
	if key == nil {
		return nil, errors.New("batch: coalescer requires a key function")
	}
	c := &Coalescer{
		inner:    inner,
		verify:   verify,
		inflight: make(map[flightKey]*flight),
	}
	c.key.Store(&keyState{fn: key})
	return c, nil
}

// SetTelemetry attaches a telemetry hub: follower waits are then
// observed under the coalesce_wait stage. Call before serving traffic.
func (c *Coalescer) SetTelemetry(tel *telemetry.Telemetry) { c.tel = tel }

// Search performs (or joins) the deduplicated search for q.
func (c *Coalescer) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	return c.search(nil, q, k)
}

// SearchContext is Search carrying a sampled trace: followers record a
// coalesce_wait span around the flight wait, leaders (and collision
// bypasses) a db_search span around the inner search.
func (c *Coalescer) SearchContext(ctx context.Context, q vec.Vector, k int) ([]vec.Scored, error) {
	return c.search(telemetry.FromContext(ctx), q, k)
}

func (c *Coalescer) search(trace *telemetry.Trace, q vec.Vector, k int) ([]vec.Scored, error) {
	ks := c.key.Load()
	key := flightKey{gen: ks.gen, key: ks.fn(q), k: k}

	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		if c.verify && !slices.Equal(f.q, q) {
			// Fingerprint collision between distinct embeddings: search
			// independently, bypassing the flight.
			c.stats.Collisions++
			c.mu.Unlock()
			finish := trace.StartSpan(telemetry.StageDBSearch)
			res, err := c.inner.Search(q, k)
			finish(err)
			return res, err
		}
		c.stats.Coalesced++
		c.mu.Unlock()
		// Link the wait to the leader's trace: the follower's latency is
		// the leader's work, and the link keeps that search attributable
		// from every request it served.
		finish := trace.StartSpanLinked(telemetry.StageCoalesceWait, f.traceID)
		var waitStart time.Time
		if c.tel != nil {
			waitStart = time.Now()
		}
		<-f.done
		if c.tel != nil {
			c.tel.ObserveStage(telemetry.StageCoalesceWait, time.Since(waitStart))
		}
		finish(f.err)
		if f.err != nil {
			return nil, f.err
		}
		// Followers get their own copy so no two callers share a
		// mutable result slice.
		out := make([]vec.Scored, len(f.res))
		copy(out, f.res)
		return out, nil
	}
	f := &flight{q: q, traceID: trace.ID(), done: make(chan struct{})}
	c.inflight[key] = f
	c.stats.Leads++
	c.mu.Unlock()

	finish := trace.StartSpan(telemetry.StageDBSearch)
	f.res, f.err = c.inner.Search(q, k)
	finish(f.err)

	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, f.err
	}
	// The leader also returns a copy: followers may still be copying
	// from f.res after this call returns, so the flight's slice must
	// stay immutable no matter what any caller does with its result.
	out := make([]vec.Scored, len(f.res))
	copy(out, f.res)
	return out, nil
}

// SetKey atomically replaces the fingerprint function. Flights already
// in progress complete under the (function, generation) pair they were
// filed under; requests hashed by the new function carry a fresh
// generation, so they can never join a retired draw's flight even when
// the numeric keys coincide — cross-draw key equality carries no
// similarity guarantee. The one cost is a missed coalescing opportunity
// for requests straddling the swap. Used to keep CoalesceLSH duplicate
// detection in step with a re-drawn shard partitioner.
func (c *Coalescer) SetKey(key KeyFunc) {
	if key == nil {
		return
	}
	c.key.Store(&keyState{fn: key, gen: c.genCtr.Add(1)})
}

// Stats returns a snapshot of the cumulative counters.
func (c *Coalescer) Stats() CoalesceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Inflight returns the number of searches currently in flight, for
// diagnostics and tests.
func (c *Coalescer) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}
