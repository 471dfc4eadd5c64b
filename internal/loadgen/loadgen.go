// Package loadgen replays a workload against the retrieval path under
// concurrent load — the traffic side of the ROADMAP's production-scale
// north star. The paper evaluates the cache one query at a time; serving
// systems (RAGCache, Cache-Craft) instead drive concurrent request
// streams, because contention and tail latency, not mean lookup cost,
// dominate at scale. The driver supports:
//
//   - Closed loop: K workers issue queries back-to-back, measuring the
//     maximum throughput the target sustains at that concurrency.
//   - Open loop: queries arrive on a Poisson schedule at a target QPS
//     regardless of completions, measuring latency under offered load.
//     Latency is taken from each query's *scheduled* arrival, so queueing
//     delay is included and coordinated omission is avoided.
//
// Arrival schedules are derived from an explicit seed and query-to-worker
// assignment is static round-robin (a pure function of query index and
// worker count), so a fixed seed replays the exact same experiment.
package loadgen

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"proximity/internal/core"
	"proximity/internal/server"
	"proximity/internal/vec"
	"proximity/internal/workload"
)

// Target is anything that can serve one workload query. Implementations
// must be safe for concurrent use.
type Target interface {
	// Do issues the query, reporting whether the cache answered it.
	Do(q workload.Query) (hit bool, err error)
}

// RetrieverTarget drives a core.CachedRetriever in-process.
type RetrieverTarget struct {
	r *core.CachedRetriever
}

// NewRetrieverTarget wraps a retriever as a load-generation target.
func NewRetrieverTarget(r *core.CachedRetriever) (*RetrieverTarget, error) {
	if r == nil {
		return nil, errors.New("loadgen: retriever is required")
	}
	return &RetrieverTarget{r: r}, nil
}

// Do implements Target.
func (t *RetrieverTarget) Do(q workload.Query) (bool, error) {
	res, err := t.r.Retrieve(q.Embedding)
	return res.Hit, err
}

// HTTPTarget drives the retrieval middleware over HTTP, exercising the
// full deployment path of Fig. 4 (network, JSON codec, handler). All
// transport concerns — including draining response bodies on error paths
// so keep-alive connections are reused rather than churned — live in
// server.Client.
type HTTPTarget struct {
	client *server.Client
}

// NewHTTPTarget targets a running middleware at base
// (e.g. "http://127.0.0.1:8080").
func NewHTTPTarget(base string) *HTTPTarget {
	return &HTTPTarget{client: server.NewClient(base)}
}

// Do implements Target, posting the pre-computed embedding.
func (t *HTTPTarget) Do(q workload.Query) (bool, error) {
	resp, err := t.client.Retrieve(q.Embedding)
	return resp.Hit, err
}

// Mode selects the traffic discipline.
type Mode int

const (
	// ClosedLoop runs K workers back-to-back (throughput probe).
	ClosedLoop Mode = iota + 1
	// OpenLoop paces arrivals at a target QPS with Poisson
	// inter-arrival times (latency-under-load probe).
	OpenLoop
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ClosedLoop:
		return "closed"
	case OpenLoop:
		return "open"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configures a run.
type Options struct {
	// Mode is the traffic discipline. Defaults to ClosedLoop.
	Mode Mode
	// Workers is the concurrency: the closed-loop population size, or
	// the open-loop executor pool. Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// QPS is the open-loop offered load. Required for OpenLoop,
	// ignored for ClosedLoop.
	QPS float64
	// Seed drives the Poisson arrival draw.
	Seed uint64
}

func (o *Options) fillDefaults() {
	if o.Mode == 0 {
		o.Mode = ClosedLoop
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

func (o Options) validate() error {
	if o.Mode != ClosedLoop && o.Mode != OpenLoop {
		return fmt.Errorf("loadgen: unknown mode %d", int(o.Mode))
	}
	if o.Mode == OpenLoop && o.QPS <= 0 {
		return fmt.Errorf("loadgen: open loop requires a positive QPS, got %v", o.QPS)
	}
	return nil
}

// Schedule returns the open-loop arrival offsets for n queries at the
// target QPS: the cumulative sum of exponentially-distributed
// inter-arrival gaps with mean 1/qps (a Poisson process). The draw is a
// pure function of the seed, so a fixed seed fixes the whole schedule.
func Schedule(n int, qps float64, seed uint64) []time.Duration {
	rng := vec.NewRand(seed)
	offsets := make([]time.Duration, n)
	var t float64 // seconds
	for i := range offsets {
		t += rng.ExpFloat64() / qps
		offsets[i] = time.Duration(t * float64(time.Second))
	}
	return offsets
}

// Assignment returns the worker index that handles each query: static
// round-robin, so the query-to-worker mapping is a pure function of the
// query index and worker count (deterministic replay).
func Assignment(n, workers int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % workers
	}
	return out
}

// Run replays the workload against the target and reports throughput and
// latency. The workload is issued exactly once, in index order per
// worker.
func Run(target Target, w workload.Workload, opts Options) (*Report, error) {
	if target == nil {
		return nil, errors.New("loadgen: target is required")
	}
	if w.Len() == 0 {
		return nil, errors.New("loadgen: empty workload")
	}
	opts.fillDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	n := w.Len()
	workers := opts.Workers
	if workers > n {
		workers = n
	}

	var offsets []time.Duration
	if opts.Mode == OpenLoop {
		offsets = Schedule(n, opts.QPS, opts.Seed)
	}
	assign := Assignment(n, workers)

	type workerResult struct {
		latencies []time.Duration // from the intended issue time
		services  []time.Duration // from the actual issue time
		hits      int
		errs      int
		firstErr  error
	}
	results := make([]workerResult, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res := &results[g]
			for i := range w.Queries {
				if assign[i] != g {
					continue
				}
				// issueAt is the INTENDED issue time: the scheduled
				// Poisson arrival in open loop, the actual issue in
				// closed loop (a closed loop has no schedule to fall
				// behind). A worker running late must NOT re-stamp it —
				// measuring a backlogged query from when the worker got
				// around to it would hide exactly the queueing delay an
				// offered-load probe exists to expose (coordinated
				// omission). Both views are recorded: response time from
				// issueAt, service time from the actual issue.
				issueAt := start
				var actual time.Time // open loop only: the post-sleep issue instant
				if offsets != nil {
					issueAt = start.Add(offsets[i])
					if d := time.Until(issueAt); d > 0 {
						time.Sleep(d)
					}
					actual = time.Now()
				} else {
					issueAt = time.Now()
				}
				hit, err := target.Do(w.Queries[i])
				if err != nil {
					res.errs++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("query %d: %w", i, err)
					}
					continue
				}
				end := time.Now()
				res.latencies = append(res.latencies, end.Sub(issueAt))
				if offsets != nil {
					// Closed loop has no schedule to fall behind, so
					// the service view would duplicate the response
					// samples; summarize aliases them instead.
					res.services = append(res.services, end.Sub(actual))
				}
				if hit {
					res.hits++
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Mode:      opts.Mode,
		Workers:   workers,
		Workload:  w.Name,
		Queries:   n,
		Elapsed:   elapsed,
		TargetQPS: opts.QPS,
	}
	var all, svc []time.Duration
	var firstErr error
	for _, res := range results {
		all = append(all, res.latencies...)
		svc = append(svc, res.services...)
		rep.Hits += res.hits
		rep.Errors += res.errs
		if firstErr == nil {
			firstErr = res.firstErr
		}
	}
	rep.FirstError = firstErr
	rep.summarize(all, svc)
	return rep, nil
}
