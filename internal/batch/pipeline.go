package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"proximity/internal/telemetry"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// Options configures a Pipeline.
type Options struct {
	// Telemetry, when non-nil, receives per-stage observations from the
	// pipeline: coalesce_wait (follower flight waits) and db_search (one
	// observation per database search a leader or a fingerprint
	// collision makes; followers make none).
	Telemetry *telemetry.Telemetry
}

// Stats are cumulative pipeline counters.
type Stats struct {
	// Searches is the number of Search calls into the pipeline.
	Searches int64
	// Coalesced is the subset served from another request's flight.
	Coalesced int64
	// Collisions counts fingerprint collisions between distinct
	// embeddings; such requests search independently.
	Collisions int64
	// Errors counts database searches that failed. Followers of a failed
	// flight receive its error but searched nothing, so they are not
	// counted.
	Errors int64
}

// CoalesceRate returns the fraction of searches that skipped the index.
func (s Stats) CoalesceRate() float64 {
	if s.Searches > 0 {
		return float64(s.Coalesced) / float64(s.Searches)
	}
	return 0
}

// Pipeline is the miss path's singleflight front: a Coalescer over
// byte-identical embeddings, directly over a vector database. It
// satisfies vectordb.DB and core.Searcher, so it drops into
// core.CachedRetriever either as the database itself or as the
// miss-path Searcher option. Safe for concurrent use.
type Pipeline struct {
	db     vectordb.DB
	co     *Coalescer
	opts   Options
	errors atomic.Int64
}

var _ vectordb.DB = (*Pipeline)(nil)
var _ Searcher = (*Pipeline)(nil)

// New builds a pipeline over db.
func New(db vectordb.DB, opts Options) (*Pipeline, error) {
	if db == nil {
		return nil, fmt.Errorf("batch: pipeline requires a database")
	}
	p := &Pipeline{db: db, opts: opts}
	co, err := NewCoalescer(searcherFunc(p.search), Fingerprint)
	if err != nil {
		return nil, err
	}
	co.SetTelemetry(opts.Telemetry)
	p.co = co
	return p, nil
}

// searcherFunc adapts a function to the Searcher interface.
type searcherFunc func(q vec.Vector, k int) ([]vec.Scored, error)

// Search implements Searcher.
func (f searcherFunc) Search(q vec.Vector, k int) ([]vec.Scored, error) { return f(q, k) }

// search is the coalescer's inner searcher: one database search, timed
// under db_search and counted in Errors when it fails. A leader's flight
// is already registered when it gets here, so it yields first: on a
// saturated host a duplicate that has arrived but not yet run would
// otherwise reach the coalescer only after a CPU-bound search finished,
// and search again.
func (p *Pipeline) search(q vec.Vector, k int) ([]vec.Scored, error) {
	runtime.Gosched()
	start := time.Now()
	res, err := p.db.Search(q, k)
	p.opts.Telemetry.ObserveStage(telemetry.StageDBSearch, time.Since(start))
	if err != nil {
		p.errors.Add(1)
	}
	return res, err
}

// Search runs one retrieval through the pipeline: duplicate in-flight
// misses share one database search.
func (p *Pipeline) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	return p.co.Search(q, k)
}

// SearchContext is Search with trace propagation: a sampled trace in ctx
// records a coalesce_wait span for a follower and a db_search span for a
// leader. Implements core.ContextSearcher.
func (p *Pipeline) SearchContext(ctx context.Context, q vec.Vector, k int) ([]vec.Scored, error) {
	return p.co.SearchContext(ctx, q, k)
}

// Dim implements vectordb.DB.
func (p *Pipeline) Dim() int { return p.db.Dim() }

// Len implements vectordb.DB.
func (p *Pipeline) Len() int { return p.db.Len() }

// Stats returns a snapshot of the counters.
func (p *Pipeline) Stats() Stats {
	cs := p.co.Stats()
	return Stats{
		Searches:   cs.Leads + cs.Coalesced + cs.Collisions,
		Coalesced:  cs.Coalesced,
		Collisions: cs.Collisions,
		Errors:     p.errors.Load(),
	}
}
