package batch

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
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
// embeddings and k that overlap in time share one inner search; the
// fingerprint only finds the flight to compare against.
type KeyFunc func(q vec.Vector) uint32

// Fingerprint is FNV-1a over the embedding's float bits: the KeyFunc a
// Pipeline coalesces by, so byte-identical embeddings share a flight.
func Fingerprint(q vec.Vector) uint32 {
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

// CoalesceStats are cumulative coalescer counters.
type CoalesceStats struct {
	// Leads counts requests that performed the inner search.
	Leads int64
	// Coalesced counts requests served from another request's flight.
	Coalesced int64
	// Collisions counts requests whose fingerprint matched an in-flight
	// search but whose embedding did not; they searched independently
	// rather than receive another query's documents.
	Collisions int64
}

// flight is one in-progress inner search shared by duplicate requests.
type flight struct {
	q       vec.Vector // the leader's embedding, for collision verification
	traceID uint64     // the leader's trace ID (0 if the leader is unsampled)
	done    chan struct{}
	res     []vec.Scored
	err     error
}

// flightKey identifies one joinable flight.
type flightKey struct {
	key uint32
	k   int
}

// Coalescer deduplicates concurrent identical searches: the first
// request with a given (fingerprint, k) becomes the leader and performs
// the inner search; a request arriving while it is in flight joins only
// if its embedding equals the leader's, then waits and receives a
// private copy of its results. A fingerprint collision between distinct
// embeddings searches independently, so no request is ever served (and
// no retriever ever caches) another query's documents. Sequential
// duplicates are NOT deduplicated — that is the cache's job; the
// coalescer only collapses races between concurrent misses. Safe for
// concurrent use.
type Coalescer struct {
	inner Searcher
	key   KeyFunc
	tel   *telemetry.Telemetry // optional: coalesce_wait stage observations

	mu       sync.Mutex
	inflight map[flightKey]*flight
	stats    CoalesceStats
}

// NewCoalescer creates a singleflight front for inner, keyed by key.
// The key only narrows the candidates: a request joins a flight with an
// equal key and k only if its embedding equals the leader's.
func NewCoalescer(inner Searcher, key KeyFunc) (*Coalescer, error) {
	if inner == nil {
		return nil, errors.New("batch: coalescer requires an inner searcher")
	}
	if key == nil {
		return nil, errors.New("batch: coalescer requires a key function")
	}
	return &Coalescer{
		inner:    inner,
		key:      key,
		inflight: make(map[flightKey]*flight),
	}, nil
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
	key := flightKey{key: c.key(q), k: k}

	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		if !slices.Equal(f.q, q) {
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
