package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"proximity/internal/telemetry"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// Searcher abstracts the miss-path nearest-neighbor search. vectordb.DB
// satisfies it, as does the batch pipeline's coalesced entry point.
type Searcher interface {
	Search(q vec.Vector, k int) ([]vec.Scored, error)
}

// ContextCache is an optional extension of Cache for implementations
// that want the request context — the cluster client threads trace
// propagation through it. RetrieveContext detects it by type assertion;
// plain caches are called through Get unchanged.
type ContextCache interface {
	GetContext(ctx context.Context, q vec.Vector) ([]int, bool)
}

// ContextSearcher is the analogous optional extension of Searcher; the
// batch pipeline and cluster client implement it so a sampled trace
// follows the miss path across coalescing and node hops.
type ContextSearcher interface {
	SearchContext(ctx context.Context, q vec.Vector, k int) ([]vec.Scored, error)
}

// RetrieverOptions configures a CachedRetriever.
type RetrieverOptions struct {
	// K is the number of document indices the RAG pipeline expects.
	K int
	// Rerank is the over-fetching factor ρ ≥ 1 (§3.3.4): the database
	// is asked for ρ·K neighbors, all are cached, and on a hit the
	// cached candidates are re-ranked against the *current* query so
	// only the most relevant K are returned. ρ = 1 disables
	// re-ranking. The paper uses ρ = 1 on the uniform benchmarks and
	// ρ = 4 on MedRAG-Zipf.
	Rerank int
	// Source resolves document IDs to their stored embeddings for the
	// re-ranking pass. Required when Rerank > 1.
	Source vectordb.VectorSource
	// Latency simulates the production-scale database service time;
	// when nil the database contributes zero simulated latency and
	// only real work is done. See vectordb.LatencyModel.
	Latency vectordb.LatencyModel
	// Searcher, when non-nil, serves the miss-path database search
	// instead of calling db.Search directly. This is the hook the
	// miss-coalescing pipeline (internal/batch) plugs into: concurrent
	// duplicate misses share one search without the retriever knowing.
	// The database is still consulted for Dim/Len and (via Source)
	// re-ranking vectors.
	Searcher Searcher
	// DynamicTolerance, when positive, derives each cache line's match
	// threshold from its own retrieval instead of the global τ:
	// tol = DynamicTolerance × distance(query, K-th retrieved
	// neighbor). A line whose neighbors were tightly packed then only
	// serves very close queries. This is the per-line dynamic
	// tolerance of Frieder et al. that §3.3.3 discusses as the
	// alternative to hand-tuning a global τ.
	DynamicTolerance float64
	// Telemetry, when non-nil, receives per-stage latency observations
	// (cache_lookup, cache_fill, db_search) for every retrieval. Stage
	// durations reuse the timings Retrieve already measures, so the
	// instrumented hot path adds no extra clock reads; nil costs one
	// branch per stage.
	Telemetry *telemetry.Telemetry
}

// Result reports one retrieval.
type Result struct {
	// Docs are the K document indices handed to the LLM prompt.
	Docs []int
	// Hit reports whether the cache answered the query.
	Hit bool
	// CacheLookup is the measured wall-clock time of the cache Get —
	// the quantity the paper's Fig. 10/11 report.
	CacheLookup time.Duration
	// CacheTime is the total measured time inside the cache: the
	// lookup plus, on a miss, the fill (Algorithm 1 line 9).
	CacheTime time.Duration
	// DBTime is the simulated database service time (zero on hits or
	// when no latency model is configured).
	DBTime time.Duration
}

// Total returns the end-to-end retrieval latency: real cache time plus
// simulated database time, the quantity Fig. 6c and Fig. 7d report.
func (r Result) Total() time.Duration { return r.CacheTime + r.DBTime }

// CachedRetriever implements the full document-retrieval path of
// Algorithm 1: cache lookup, database fallback, cache fill, and the
// optional re-ranking pass. It is safe for concurrent use when its cache
// and database are.
type CachedRetriever struct {
	cache Cache
	db    vectordb.DB
	opts  RetrieverOptions
	dist  vec.DistanceFunc
}

// NewCachedRetriever wires a Proximity cache in front of a vector
// database. cache may be nil, yielding a no-cache baseline retriever that
// always consults the database — the paper's comparison point.
func NewCachedRetriever(cache Cache, db vectordb.DB, opts RetrieverOptions) (*CachedRetriever, error) {
	if db == nil {
		return nil, errors.New("core: retriever requires a database")
	}
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	if opts.Rerank == 0 {
		opts.Rerank = 1
	}
	if opts.Rerank < 1 {
		return nil, fmt.Errorf("core: rerank factor must be ≥ 1, got %d", opts.Rerank)
	}
	if opts.Rerank > 1 && opts.Source == nil {
		return nil, errors.New("core: rerank factor > 1 requires a vector source")
	}
	return &CachedRetriever{
		cache: cache,
		db:    db,
		opts:  opts,
		dist:  vec.L2Distance.Func(),
	}, nil
}

// Retrieve returns the K most relevant document indices for the query
// embedding, consulting the cache first.
func (r *CachedRetriever) Retrieve(q vec.Vector) (Result, error) {
	return r.RetrieveContext(context.Background(), q)
}

// RetrieveContext is Retrieve with request-scoped observability: if ctx
// carries a sampled telemetry.Trace, each stage records a span, and the
// context is forwarded to ContextCache/ContextSearcher implementations
// so traces survive the batch pipeline and cluster hops. With no trace
// in ctx it behaves exactly like Retrieve.
func (r *CachedRetriever) RetrieveContext(ctx context.Context, q vec.Vector) (Result, error) {
	if q == nil {
		return Result{}, errNilQuery
	}
	// A query of the wrong length is the caller's malformed input: it is
	// refused here, before the cache's kernels (which panic on a length
	// mismatch) or the searcher see it.
	if dim := r.db.Dim(); len(q) != dim {
		return Result{}, fmt.Errorf("core: query has %d dimensions, database has %d: %w",
			len(q), dim, vec.ErrDimensionMismatch)
	}
	var res Result
	tel := r.opts.Telemetry
	trace := telemetry.FromContext(ctx)

	if r.cache != nil {
		finish := trace.StartSpan(telemetry.StageCacheLookup)
		start := time.Now()
		var cached []int
		var hit bool
		if cc, ok := r.cache.(ContextCache); ok {
			cached, hit = cc.GetContext(ctx, q)
		} else {
			cached, hit = r.cache.Get(q)
		}
		res.CacheLookup = time.Since(start)
		finish(nil)
		res.CacheTime = res.CacheLookup
		tel.ObserveStage(telemetry.StageCacheLookup, res.CacheLookup)
		if hit {
			res.Hit = true
			docs, err := r.rerank(q, cached)
			if err != nil {
				return Result{}, err
			}
			res.Docs = docs
			return res, nil
		}
	}

	// Cache miss (or no cache): over-fetch ρ·K from the database,
	// through the coalescing searcher when one is configured. A
	// context-aware searcher attributes its own stages (coalesce wait,
	// node RPC); a plain one is timed here as db_search.
	search := Searcher(r.db)
	if r.opts.Searcher != nil {
		search = r.opts.Searcher
	}
	var scored []vec.Scored
	var err error
	if cs, ok := search.(ContextSearcher); ok {
		scored, err = cs.SearchContext(ctx, q, r.opts.K*r.opts.Rerank)
	} else {
		finish := trace.StartSpan(telemetry.StageDBSearch)
		start := time.Now()
		scored, err = search.Search(q, r.opts.K*r.opts.Rerank)
		dur := time.Since(start)
		finish(err)
		tel.ObserveStage(telemetry.StageDBSearch, dur)
	}
	if err != nil {
		return Result{}, fmt.Errorf("core: database search: %w", err)
	}
	if r.opts.Latency != nil {
		res.DBTime = r.opts.Latency.Lookup()
	}
	all := vec.IDs(scored)

	if r.cache != nil {
		finish := trace.StartSpan(telemetry.StageCacheFill)
		start := time.Now()
		if r.opts.DynamicTolerance > 0 {
			r.cache.PutWithTolerance(q, all, r.dynamicTolerance(scored))
		} else {
			r.cache.Put(q, all)
		}
		fill := time.Since(start)
		finish(nil)
		res.CacheTime += fill
		tel.ObserveStage(telemetry.StageCacheFill, fill)
	}
	if len(all) > r.opts.K {
		all = all[:r.opts.K]
	}
	res.Docs = all
	return res, nil
}

// dynamicTolerance derives a per-line match threshold from the retrieved
// neighborhood: the distance to the K-th neighbor scaled by the
// configured factor. With fewer than K results the farthest one is used.
func (r *CachedRetriever) dynamicTolerance(scored []vec.Scored) float32 {
	if len(scored) == 0 {
		return 0
	}
	idx := r.opts.K - 1
	if idx >= len(scored) {
		idx = len(scored) - 1
	}
	return float32(r.opts.DynamicTolerance) * scored[idx].Dist
}

// rerank scores the cached candidate IDs against the current query and
// keeps the best K. With ρ = 1 it just truncates, preserving the order
// the database returned for the original cached query.
func (r *CachedRetriever) rerank(q vec.Vector, cached []int) ([]int, error) {
	if r.opts.Rerank == 1 || len(cached) <= r.opts.K {
		if len(cached) > r.opts.K {
			cached = cached[:r.opts.K]
		}
		return cached, nil
	}
	scored := make([]vec.Scored, 0, len(cached))
	for _, id := range cached {
		v, err := r.opts.Source.Vector(id)
		if err != nil {
			return nil, fmt.Errorf("core: rerank: %w", err)
		}
		scored = append(scored, vec.Scored{ID: id, Dist: r.dist(q, v)})
	}
	return vec.IDs(vec.TopK(scored, r.opts.K)), nil
}

// Cache returns the underlying cache (nil for the no-cache baseline).
func (r *CachedRetriever) Cache() Cache { return r.cache }

// DB returns the backing database.
func (r *CachedRetriever) DB() vectordb.DB { return r.db }

// Searcher returns the configured miss-path searcher (nil when misses go
// straight to the database). The server looks up its batch pipeline
// here once, when it is built, to export the pipeline's counters.
func (r *CachedRetriever) Searcher() Searcher { return r.opts.Searcher }

// Telemetry returns the configured telemetry hub (nil when unset). The
// server uses this to expose the retriever's stage histograms and tracer.
func (r *CachedRetriever) Telemetry() *telemetry.Telemetry { return r.opts.Telemetry }

// K returns the configured result count.
func (r *CachedRetriever) K() int { return r.opts.K }

// Rerank returns the configured over-fetch factor ρ.
func (r *CachedRetriever) Rerank() int { return r.opts.Rerank }
