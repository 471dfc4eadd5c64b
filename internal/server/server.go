// Package server exposes the Proximity retrieval path as an HTTP
// middleware service: the deployment shape the paper targets, where the
// cache intercepts queries on their way to the vector database (Fig. 4).
// The service accepts raw text (embedded server-side) or pre-computed
// embeddings, and reports cache statistics for operational monitoring.
//
// A binary retrieve skips net/http's per-request work on both ends:
// Client writes its request head and reads the reply head itself, and
// the server serves a keep-alive connection in a loop of its own,
// handing anything else back to net/http unconsumed (see Server).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"mime"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"proximity/internal/batch"
	"proximity/internal/core"
	"proximity/internal/embed"
	"proximity/internal/rebalance"
	"proximity/internal/shard"
	"proximity/internal/telemetry"
	"proximity/internal/vec"
)

// Documents resolves retrieved indices to their text, so responses can
// carry the passages an LLM prompt needs. Optional.
type Documents interface {
	// Text returns the passage text for a document ID.
	Text(id int) (string, error)
}

// Rebalancer is the admin surface of a rebalance controller (satisfied
// by rebalance.Controller): the stats endpoint reads its counters and
// /v1/rebalance triggers a manual action.
type Rebalancer interface {
	Stats() rebalance.Stats
	TriggerNow() (rebalance.Outcome, error)
}

// Config wires a Server.
type Config struct {
	// Retriever is the cache+database retrieval path (required).
	Retriever *core.CachedRetriever
	// Embedder encodes text queries (required for /v1/query).
	Embedder embed.Embedder
	// Docs resolves passage text (optional).
	Docs Documents
	// Rebalancer exposes an adaptive rebalance controller on the admin
	// surface (optional; /v1/rebalance returns 501 without one).
	Rebalancer Rebalancer
	// Telemetry is the observability hub behind /metrics and /v1/traces.
	// When nil, the retriever's hub is used; when that is nil too, a
	// standalone hub is created so /metrics always answers (its stage
	// histograms then stay empty — the retriever observes into its own).
	Telemetry *telemetry.Telemetry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ — opt-in
	// because profile endpoints on a production port are an operator
	// decision, not a default.
	EnablePprof bool
	// Logger receives structured error-path logs (5xx responses). Nil
	// uses slog.Default.
	Logger *slog.Logger
}

// Server is the HTTP middleware. Create with New, mount via Handler, or
// run with Listen or ListenAndServe.
//
// A keep-alive connection leaves net/http once the body of a
// ContentTypeF32 /v1/retrieve on it is read: a loop of the server's own
// answers that request and every later one in the head layout Client
// writes, with the reply bytes net/http would send (Date aside). It
// takes over only an HTTP/1.1 request with a Content-Length and no
// Connection: close or Expect, whose ResponseWriter is itself an
// http.Hijacker (a wrapper that is not keeps the connection on
// net/http) and whose http.ServerContextKey names the mounting
// *http.Server. The loop keeps that server's IdleTimeout (else
// ReadTimeout), ReadHeaderTimeout, ReadTimeout and WriteTimeout; its
// ConnState hook and Close do not see the connection, Listen's stop
// does. A head in any other layout, or with a body over the limit, goes
// unconsumed with the connection to a private http.Server with the same
// limits, which serves it from then on.
type Server struct {
	cfg Config
	mux *http.ServeMux
	tel *telemetry.Telemetry
	log *slog.Logger
	dim int // the database's; sizes body limits and frames binary bodies
	// pipe is the retriever's miss-coalescing pipeline, nil when misses
	// go to the database some other way.
	pipe *batch.Pipeline

	// scraped is the snapshot the cache and batch series of /metrics
	// render; each scrape stores a fresh one before rendering.
	// Overlapping scrapes may render some series from each other's
	// snapshot.
	scraped atomic.Pointer[scrape]

	mounts sync.Map // *http.Server → *mount, for each server Listen made
}

// New validates the config and builds the routes.
func New(cfg Config) (*Server, error) {
	if cfg.Retriever == nil {
		return nil, errors.New("server: retriever is required")
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), tel: cfg.Telemetry, log: cfg.Logger,
		dim: cfg.Retriever.DB().Dim()}
	if s.dim <= 0 {
		return nil, fmt.Errorf("server: database reports dimension %d", s.dim)
	}
	if s.tel == nil {
		s.tel = cfg.Retriever.Telemetry()
	}
	if s.tel == nil {
		s.tel = telemetry.New(telemetry.Options{})
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	s.pipe, _ = cfg.Retriever.Searcher().(*batch.Pipeline)
	s.registerMetrics()
	s.mux.HandleFunc("POST /v1/retrieve", s.handleRetrieve)
	s.mux.HandleFunc("POST /v1/retrieve/batch", s.handleRetrieveBatch)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("POST /v1/flush", s.handleFlush)
	s.mux.HandleFunc("POST /v1/rebalance", s.handleRebalance)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// registerMetrics wires the process's operational counters into the
// telemetry registry. Each cache and batch series is declared once,
// below, and reads its field of the snapshot handleMetrics takes per
// scrape; the blocks the cache reports, and the pipeline, decide which
// exist. A remote cache (see readCache) exports none, so a scrape never
// makes a remote call.
func (s *Server) registerMetrics() {
	reg := s.tel.Registry
	if reg == nil {
		return
	}
	telemetry.RegisterRuntimeMetrics(reg)
	first := s.readScrape()
	s.scraped.Store(first)
	if snap := first.cache; snap != nil {
		scraped := func() *cacheSnapshot { return s.scraped.Load().cache }
		reg.CounterFunc(telemetry.MetricCacheHitsTotal, "Cache hits.",
			func() float64 { return float64(scraped().stats.Hits) })
		reg.CounterFunc(telemetry.MetricCacheMissesTotal, "Cache misses.",
			func() float64 { return float64(scraped().stats.Misses) })
		reg.CounterFunc(telemetry.MetricCacheEvictionsTotal, "Cache evictions.",
			func() float64 { return float64(scraped().stats.Evictions) })
		reg.CounterFunc(telemetry.MetricCachePutsTotal, "Cache fills.",
			func() float64 { return float64(scraped().stats.Puts) })
		reg.CounterFunc(telemetry.MetricCacheDistCompsTotal, "Exact distance computations performed by cache lookups.",
			func() float64 { return float64(scraped().stats.DistComps) })
		reg.GaugeFunc(telemetry.MetricCacheEntries, "Resident cache entries.",
			func() float64 { return float64(scraped().entries) })
		reg.GaugeFunc(telemetry.MetricCacheCapacity, "Configured cache capacity.",
			func() float64 { return float64(scraped().capacity) })
		if snap.stats.Tier != nil {
			tiers := func() *core.TierStats { return scraped().stats.Tier }
			reg.GaugeFunc(telemetry.MetricTierHotEntries, "Resident hot-tier entries.",
				func() float64 { return float64(tiers().HotEntries) })
			reg.GaugeFunc(telemetry.MetricTierHotCapacity, "Configured hot-tier capacity.",
				func() float64 { return float64(tiers().HotCapacity) })
			reg.GaugeFunc(telemetry.MetricTierWarmEntries, "Resident warm-tier entries.",
				func() float64 { return float64(tiers().WarmEntries) })
			reg.GaugeFunc(telemetry.MetricTierWarmCapacity, "Configured warm-tier capacity.",
				func() float64 { return float64(tiers().WarmCapacity) })
			reg.GaugeFunc(telemetry.MetricTierWarmBytes, "Vector bytes resident in warm record files.",
				func() float64 { return float64(tiers().WarmBytes) })
			reg.CounterFunc(telemetry.MetricTierHotHitsTotal, "Lookups served by the hot tier.",
				func() float64 { return float64(tiers().HotHits) })
			reg.CounterFunc(telemetry.MetricTierWarmHitsTotal, "Lookups served by the warm tier.",
				func() float64 { return float64(tiers().WarmHits) })
			reg.CounterFunc(telemetry.MetricTierPromotionsTotal, "Warm entries moved back into the hot tier on a hit.",
				func() float64 { return float64(tiers().Promotions) })
			reg.CounterFunc(telemetry.MetricTierDemotionsTotal, "Hot-tier evictions absorbed into the warm tier.",
				func() float64 { return float64(tiers().Demotions) })
			reg.CounterFunc(telemetry.MetricTierWarmDiscardsTotal, "Entries aged out of the warm tier (true evictions).",
				func() float64 { return float64(tiers().WarmDiscards) })
			reg.CounterFunc(telemetry.MetricTierWarmScannedTotal, "Warm vectors read and exactly compared during lookups.",
				func() float64 { return float64(tiers().WarmScanned) })
			reg.CounterFunc(telemetry.MetricTierWarmPrunedTotal,
				"Warm entries ruled out on their in-memory key head without a record read.",
				func() float64 { return float64(tiers().WarmPruned) })
		}
	}
	if s.pipe != nil {
		batched := func() *batch.Stats { return &s.scraped.Load().batch }
		reg.CounterFunc(telemetry.MetricBatchSearchesTotal,
			"Searches entering the miss-coalescing pipeline.",
			func() float64 { return float64(batched().Searches) })
		reg.CounterFunc(telemetry.MetricBatchCoalescedTotal,
			"Searches served from another request's flight.",
			func() float64 { return float64(batched().Coalesced) })
		reg.CounterFunc(telemetry.MetricBatchErrorsTotal,
			"Database searches by the pipeline that returned an error.",
			func() float64 { return float64(batched().Errors) })
	}
}

// Handler returns the HTTP handler for mounting into a custom server.
func (s *Server) Handler() http.Handler { return s.mux }

// newHTTPServer is the one place the edge's time limits are set. A peer
// gets 5 s to send its headers and 30 s for the whole request (the
// largest batch body is under 1 MB); a reply gets 90 s, which leaves
// room for a full batch of misses and for pprof's 30 s default profile;
// an idle keep-alive connection is dropped after 120 s, later than the
// 90 s at which net/http clients drop theirs, so a client never reuses a
// connection this side has just closed.
func (s *Server) newHTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// ListenAndServe starts serving on addr, returning the bound listener
// address through the ready callback (useful with addr ":0").
func (s *Server) ListenAndServe(addr string, ready func(boundAddr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	return s.newHTTPServer().Serve(ln)
}

// Listen binds addr (use "127.0.0.1:0" for an ephemeral loopback port)
// and serves in a background goroutine, returning the bound address and a
// stop function. Stop closes the listener and every active connection
// immediately, taken-over and handed-back ones included — the
// abrupt-death shape the cluster failure tests need — so a stopped node
// looks exactly like a crashed one to its clients.
func (s *Server) Listen(addr string) (bound string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("server: listen: %w", err)
	}
	srv := s.newHTTPServer()
	m := &mount{conns: make(map[*takenConn]struct{})}
	s.mounts.Store(srv, m)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() error {
		err := srv.Close()
		m.close()
		return err
	}, nil
}

// RetrieveRequest asks for the nearest documents to an embedding. It is
// the JSON encoding of a /v1/retrieve body; the ContentTypeF32 encoding
// is the same embedding as 4·dim raw bytes.
type RetrieveRequest struct {
	Embedding []float32 `json:"embedding"`
}

// QueryRequest asks for the nearest documents to a text query.
type QueryRequest struct {
	Text string `json:"text"`
}

// RetrieveResponse reports one retrieval.
type RetrieveResponse struct {
	Docs        []int    `json:"docs"`
	Texts       []string `json:"texts,omitempty"`
	Hit         bool     `json:"hit"`
	CacheMicros float64  `json:"cacheLookupMicros"`
	DBMillis    float64  `json:"dbServiceMillis"`
}

// BatchRetrieveRequest asks for the nearest documents to several
// embeddings in one call — the submission shape the cluster router's
// per-node batch submitters use to amortize the HTTP round trip across a
// gathered batch. Elements are served concurrently (so they reach a
// node-side miss-coalescing pipeline together); results stay parallel to
// the request, but elements of one batch observe no ordering among
// themselves. This is the JSON encoding of a /v1/retrieve/batch body;
// under ContentTypeF32 the embeddings follow each other with no framing.
type BatchRetrieveRequest struct {
	Embeddings [][]float32 `json:"embeddings"`
}

// BatchItem is one element of a batched retrieval.
type BatchItem struct {
	Docs []int `json:"docs"`
	Hit  bool  `json:"hit"`
}

// BatchRetrieveResponse reports a batched retrieval; Results is parallel
// to the request's Embeddings.
type BatchRetrieveResponse struct {
	Results []BatchItem `json:"results"`
}

// MaxBatchElements caps one batched-retrieve request. Elements are
// served concurrently, so the cap bounds the goroutines (and retrievals)
// a single caller can demand of a node.
const MaxBatchElements = 256

// StatsResponse is the /v1/stats payload. The shard fields are present
// only when the cache's Stats carry a Shards block (a
// shard.ShardedCache).
type StatsResponse struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hitRate"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Evictions int64   `json:"evictions"`

	// ShardCount is the number of cache partitions (0 = unsharded).
	ShardCount int `json:"shardCount,omitempty"`
	// ShardImbalance is max shard entries over mean shard entries
	// (1.0 = perfectly even spread).
	ShardImbalance float64 `json:"shardImbalance,omitempty"`
	// Shards holds per-shard occupancy and eviction counters.
	Shards []ShardStat `json:"shards,omitempty"`

	// Batch holds miss-coalescing counters, present only when the
	// retriever's miss path runs through a batch.Pipeline.
	Batch *BatchStats `json:"batch,omitempty"`

	// Rebalance holds adaptive-rebalancing counters, present only when
	// a controller is configured.
	Rebalance *RebalanceStats `json:"rebalance,omitempty"`

	// Tiers holds the hot/warm tier breakdown (per-tier occupancy, hit
	// split, promotion/demotion traffic), present only when the cache is
	// tiered (tier.TieredCache, possibly sharded).
	Tiers *core.TierStats `json:"tiers,omitempty"`
}

// RebalanceStats is the adaptive-rebalancing slice of the stats payload.
type RebalanceStats struct {
	Samples       int64   `json:"samples"`
	Breaches      int64   `json:"breaches"`
	Triggers      int64   `json:"triggers"`
	Rebalances    int64   `json:"rebalances"`
	Declined      int64   `json:"declined"`
	Failures      int64   `json:"failures"`
	LastImbalance float64 `json:"lastImbalance"`
	LastBefore    float64 `json:"lastBefore"`
	LastAfter     float64 `json:"lastAfter"`
	LastMoved     int     `json:"lastMoved"`
	LastDetail    string  `json:"lastDetail,omitempty"`
	LastError     string  `json:"lastError,omitempty"`
}

// RebalanceResponse reports one manually-triggered rebalance action.
type RebalanceResponse struct {
	Acted  bool    `json:"acted"`
	Before float64 `json:"before"`
	After  float64 `json:"after"`
	Moved  int     `json:"moved"`
	Detail string  `json:"detail,omitempty"`
}

// BatchStats is the miss-path coalescing slice of the stats payload.
type BatchStats struct {
	Searches     int64   `json:"searches"`
	Coalesced    int64   `json:"coalesced"`
	CoalesceRate float64 `json:"coalesceRate"`
	Errors       int64   `json:"errors"`
}

// ShardStat is one shard's slice of the stats payload.
type ShardStat struct {
	Shard     int     `json:"shard"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	Occupancy float64 `json:"occupancy"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
}

// statsSnapshotter lets a cache deliver its counters, entry count, and
// capacity in one call; satisfied by cluster.Client, where the three
// separate Cache methods would each fan a remote stats fetch out to
// every node.
type statsSnapshotter interface {
	StatsSnapshot() (stats core.Stats, entries, capacity int)
}

// cacheSnapshot is what one /v1/stats response or one /metrics scrape
// reads from the cache: each number is read once per request, not once
// per series that shows it.
type cacheSnapshot struct {
	// stats.Tier is nil unless the cache has tiers. A sharded cache has
	// it, all zeros where no shard is tiered, and its Shards rows.
	stats             core.Stats
	entries, capacity int
}

// scrape is what one /metrics scrape renders: the cache's snapshot (nil
// without a local cache) and the pipeline's counters (zero without a
// pipeline), each read once.
type scrape struct {
	cache *cacheSnapshot
	batch batch.Stats
}

// readScrape takes one scrape's snapshot.
func (s *Server) readScrape() *scrape {
	sc := &scrape{cache: readCache(s.cfg.Retriever.Cache(), false)}
	if s.pipe != nil {
		sc.batch = s.pipe.Stats()
	}
	return sc
}

// readCache takes one snapshot of cache, or returns nil without a cache.
// A remote cache (statsSnapshotter), whose every read is a fan-out to
// its nodes, is read in one call, and only when remote is set.
func readCache(cache core.Cache, remote bool) *cacheSnapshot {
	if cache == nil {
		return nil
	}
	snap := new(cacheSnapshot)
	if r, ok := cache.(statsSnapshotter); ok {
		if !remote {
			return nil
		}
		snap.stats, snap.entries, snap.capacity = r.StatsSnapshot()
		return snap
	}
	snap.stats, snap.entries, snap.capacity = cache.Stats(), cache.Len(), cache.Capacity()
	return snap
}

func (s *Server) handleRetrieve(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") == ContentTypeF32 {
		if embedding, ok := s.readF32(w, r, 1); ok && !s.takeOver(w, r, embedding) {
			s.retrieve(w, r, embedding)
		}
		return
	}
	req := new(RetrieveRequest) // only a JSON body needs one
	if !s.readJSON(w, r, 1, req) {
		return
	}
	if len(req.Embedding) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("embedding is required"))
		return
	}
	s.retrieve(w, r, req.Embedding)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Embedder == nil {
		httpError(w, http.StatusNotImplemented, errors.New("no embedder configured"))
		return
	}
	var req QueryRequest
	if err := decodeJSON(w, r, jsonBodyLimit(s.dim, 1), &req); err != nil {
		httpError(w, bodyStatus(err), err)
		return
	}
	if req.Text == "" {
		httpError(w, http.StatusBadRequest, errors.New("text is required"))
		return
	}
	s.retrieve(w, r, s.cfg.Embedder.Embed(req.Text))
}

func (s *Server) handleRetrieveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRetrieveRequest
	if r.Header.Get("Content-Type") == ContentTypeF32 {
		flat, ok := s.readF32(w, r, MaxBatchElements)
		if !ok {
			return
		}
		// Full slice expressions: an append by a later stage must not run
		// into the next element.
		req.Embeddings = make([][]float32, len(flat)/s.dim)
		for i := range req.Embeddings {
			req.Embeddings[i] = flat[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
		}
	} else if !s.readJSON(w, r, MaxBatchElements, &req) {
		return
	}
	if len(req.Embeddings) == 0 {
		httpError(w, http.StatusBadRequest, errors.New("at least one embedding is required"))
		return
	}
	// Each element gets a goroutine below, so the batch size bounds the
	// concurrency one request can demand of the node; reject oversized
	// batches rather than let an arbitrary caller OOM the server (the
	// cluster submitter's flushes are far smaller than this cap).
	if len(req.Embeddings) > MaxBatchElements {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds the %d-element limit", len(req.Embeddings), MaxBatchElements))
		return
	}
	for i, emb := range req.Embeddings {
		if len(emb) == 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("embedding %d is empty", i))
			return
		}
	}
	// Serve the elements concurrently: the batched endpoint exists so a
	// gathered burst arrives at this node's miss-coalescing pipeline
	// TOGETHER — a sequential loop would feed the coalescer one query at
	// a time, so no two duplicates in the burst could ever share a
	// flight, and the burst would take the sum of its searches. Fan-in
	// keeps the wire contract: results parallel to the request, and the
	// first failure fails the whole batch (the cluster client's retry
	// unit).
	resp := BatchRetrieveResponse{Results: make([]BatchItem, len(req.Embeddings))}
	errs := make([]error, len(req.Embeddings))
	var wg sync.WaitGroup
	for i, emb := range req.Embeddings {
		wg.Add(1)
		go func(i int, emb vec.Vector) {
			defer wg.Done()
			res, err := s.cfg.Retriever.Retrieve(emb)
			if err != nil {
				errs[i] = err
				return
			}
			resp.Results[i] = BatchItem{Docs: res.Docs, Hit: res.Hit}
		}(i, emb)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.fail(w, r.URL.Path, retrieveStatus(err), fmt.Errorf("embedding %d: %w", i, err))
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// readF32 decodes a ContentTypeF32 retrieve body of at most maxVecs
// embeddings. On failure the error response is already written: 413
// for a body over the limit, 400 for the rest.
func (s *Server) readF32(w http.ResponseWriter, r *http.Request, maxVecs int) ([]float32, bool) {
	flat, err := DecodeF32(w, r.Body, s.dim, maxVecs)
	if err != nil {
		httpError(w, bodyStatus(err), err)
	}
	return flat, err == nil
}

// readJSON decodes a retrieve body of any other Content-Type into
// jsonReq: JSON (application/json, no Content-Type, or the form type
// `curl -d` sends unasked). On failure the error response is already
// written: 415 for any other Content-Type, 413 for a body over the
// limit, 400 for the rest.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, maxVecs int, jsonReq any) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		switch mt, _, _ := mime.ParseMediaType(ct); mt {
		case "application/json", "application/x-www-form-urlencoded":
		default:
			httpError(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("content type %q: want %s or application/json", ct, ContentTypeF32))
			return false
		}
	}
	if err := decodeJSON(w, r, jsonBodyLimit(s.dim, maxVecs), jsonReq); err != nil {
		httpError(w, bodyStatus(err), err)
		return false
	}
	return true
}

// jsonBodyLimit bounds a JSON request of n embeddings: 32 bytes per
// component (a float64 printed in full is 25) plus slack for the
// envelope, and for the text of a /v1/query.
func jsonBodyLimit(dim, n int) int { return 32*dim*n + 4096 }

func decodeJSON(w http.ResponseWriter, r *http.Request, limit int, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(limit))).Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// bodyStatus classifies a request-body error: over the size limit is
// 413, anything else the caller's malformed input.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// retrieveStatus classifies a Retriever.Retrieve error: only failures the
// caller provoked with malformed input (a query of the wrong
// dimensionality) are client errors; everything else — backend search
// failures, re-rank source errors — is an internal fault. The cluster
// router depends on this split: 5xx marks a node unhealthy and retries
// the query on the next ring replica, while 4xx surfaces immediately
// because every replica would reject the same input.
func retrieveStatus(err error) int {
	if errors.Is(err, vec.ErrDimensionMismatch) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func (s *Server) retrieve(w http.ResponseWriter, r *http.Request, embedding vec.Vector) {
	resp, spans, code, err := s.answer(r.Context(), r.Header.Get(telemetry.TraceHeader), r.URL.Path, embedding)
	if spans != "" {
		w.Header().Set(telemetry.TraceSpanHeader, spans)
	}
	if err != nil {
		httpError(w, code, err)
		return
	}
	writeRetrieveReply(w, &resp)
}

// answer runs one retrieval and returns resp, or err with its status
// (logging a server fault), and the span header's value, "" for none.
func (s *Server) answer(ctx context.Context, traceHdr, path string, embedding vec.Vector) (resp RetrieveResponse, spans string, code int, err error) {
	// Trace admission: a request arriving with the propagation header is
	// part of a trace some upstream router already sampled — record
	// under its ID and return this node's spans in the response header.
	// Otherwise this node makes its own sampling decision.
	var trace *telemetry.Trace
	foreign := false
	if id, ok := telemetry.ParseTraceID(traceHdr); ok {
		ctx, trace = s.tel.Tracer.StartForeign(ctx, id)
		foreign = trace != nil
	} else {
		ctx, trace = s.tel.StartTrace(ctx)
	}

	res, err := s.cfg.Retriever.RetrieveContext(ctx, embedding)
	if foreign {
		if enc, mErr := telemetry.MarshalSpans(trace.Spans()); mErr == nil {
			spans = enc
		}
	}
	trace.Finish()
	if code = http.StatusOK; err != nil {
		code = retrieveStatus(err)
	} else {
		resp = RetrieveResponse{
			Docs:        res.Docs,
			Hit:         res.Hit,
			CacheMicros: float64(res.CacheLookup) / float64(time.Microsecond),
			DBMillis:    float64(res.DBTime) / float64(time.Millisecond),
		}
	}
	if err == nil && s.cfg.Docs != nil {
		resp.Texts = make([]string, 0, len(res.Docs))
		for _, id := range res.Docs {
			text, tErr := s.cfg.Docs.Text(id)
			if tErr != nil {
				code, err = http.StatusInternalServerError, fmt.Errorf("resolve doc %d: %w", id, tErr)
				break
			}
			resp.Texts = append(resp.Texts, text)
		}
	}
	if code >= 500 {
		s.log.ErrorContext(ctx, "request failed", "path", path, "status", code, "err", err)
	}
	return resp, spans, code, err
}

// writeRetrieveReply writes resp as writeJSON(w, 200, resp) would, byte
// for byte, laid out by appendRetrieveReply where it can.
func writeRetrieveReply(w http.ResponseWriter, resp *RetrieveResponse) {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	b, ok := appendRetrieveReply((*bp)[:0], resp)
	if !ok {
		writeJSON(w, http.StatusOK, *resp) // a copy: resp stays on the caller's stack
		return
	}
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// fail writes an error response, logging server faults (5xx) through the
// structured logger; client errors (4xx) stay quiet — they are the
// caller's bug, not an operational signal.
func (s *Server) fail(w http.ResponseWriter, path string, code int, err error) {
	if code >= 500 {
		s.log.Error("request failed", "path", path, "status", code, "err", err)
	}
	httpError(w, code, err)
}

// handleMetrics serves the Prometheus text exposition of every
// registered series: cache and batch counters, per-stage latency
// histograms, and runtime self-sampling. The cache and the pipeline are
// each read once, before rendering, and every cache and batch series
// renders that one snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.scraped.Store(s.readScrape())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.tel.Registry.WritePrometheus(w)
}

// TracesResponse is the /v1/traces payload: recent sampled traces,
// newest first.
type TracesResponse struct {
	Traces []telemetry.TraceRecord `json:"traces"`
}

// handleTraces serves the ring buffer of recent sampled traces. The
// optional ?n= query bounds the count (default: everything buffered).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		n = parsed
	}
	recs := s.tel.Tracer.Recent(n)
	if recs == nil {
		recs = []telemetry.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: recs})
}

// HealthResponse is the /v1/healthz payload: liveness plus build
// identity, so a fleet operator can verify node homogeneity.
type HealthResponse struct {
	Status    string `json:"status"`
	Module    string `json:"module"`
	Version   string `json:"version"`
	GoVersion string `json:"goVersion"`
}

// handleHealthz is the build-info health check (the bare /healthz stays
// as the minimal liveness probe the cluster router polls).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	bi := telemetry.ReadBuildInfo()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:    "ok",
		Module:    bi.Module,
		Version:   bi.Version,
		GoVersion: bi.GoVersion,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	var resp StatsResponse
	if s.pipe != nil {
		st := s.pipe.Stats()
		resp.Batch = &BatchStats{
			Searches:     st.Searches,
			Coalesced:    st.Coalesced,
			CoalesceRate: st.CoalesceRate(),
			Errors:       st.Errors,
		}
	}
	if s.cfg.Rebalancer != nil {
		st := s.cfg.Rebalancer.Stats()
		resp.Rebalance = &RebalanceStats{
			Samples:       st.Samples,
			Breaches:      st.Breaches,
			Triggers:      st.Triggers,
			Rebalances:    st.Rebalances,
			Declined:      st.Declined,
			Failures:      st.Failures,
			LastImbalance: st.LastSample.Imbalance,
			LastBefore:    st.LastOutcome.Before,
			LastAfter:     st.LastOutcome.After,
			LastMoved:     st.LastOutcome.Moved,
			LastDetail:    st.LastOutcome.Detail,
			LastError:     st.LastError,
		}
	}
	if snap := readCache(s.cfg.Retriever.Cache(), true); snap != nil {
		resp.Hits, resp.Misses, resp.Evictions = snap.stats.Hits, snap.stats.Misses, snap.stats.Evictions
		resp.HitRate, resp.Entries, resp.Capacity = snap.stats.HitRate(), snap.entries, snap.capacity
		// A sharded FLAT or LSH cache reports a tier block that no shard
		// fills: the response leaves out a block of zeros.
		if ts := snap.stats.Tier; ts != nil && *ts != (core.TierStats{}) {
			resp.Tiers = ts
		}
		if rows := snap.stats.Shards; len(rows) > 0 {
			resp.ShardCount = len(rows)
			resp.ShardImbalance = shard.Pressure(rows).Imbalance
			resp.Shards = make([]ShardStat, len(rows))
			for i, row := range rows {
				resp.Shards[i] = ShardStat{
					Shard:     i,
					Entries:   row.Entries,
					Capacity:  row.Capacity,
					Occupancy: row.Occupancy(),
					Hits:      row.Hits,
					Misses:    row.Misses,
					Evictions: row.Evictions,
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFlush empties the cache and nothing else: every counter, the
// cache's and the pipeline's, keeps counting across it, as a Prometheus
// counter must, and resets only when the process restarts.
func (s *Server) handleFlush(w http.ResponseWriter, _ *http.Request) {
	if cache := s.cfg.Retriever.Cache(); cache != nil {
		cache.Clear()
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRebalance triggers one manual rebalance through the configured
// controller — the operator's override when waiting for the sustained-
// breach window is not wanted (e.g. right after a deliberate skew, or in
// a runbook). The controller's post-action cooldown still arms.
func (s *Server) handleRebalance(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Rebalancer == nil {
		httpError(w, http.StatusNotImplemented, errors.New("no rebalance controller configured"))
		return
	}
	out, err := s.cfg.Rebalancer.TriggerNow()
	if err != nil {
		// Only a genuine collision with another in-flight action is a
		// retryable 409; an actuator failure is an internal fault — the
		// same 4xx-vs-5xx split the retrieve path draws, so a runbook
		// does not retry a 500 blindly.
		code := http.StatusInternalServerError
		if errors.Is(err, rebalance.ErrBusy) {
			code = http.StatusConflict
		}
		s.fail(w, "/v1/rebalance", code, err)
		return
	}
	s.log.Info("rebalance committed",
		"acted", out.Acted, "before", out.Before, "after", out.After, "moved", out.Moved)
	writeJSON(w, http.StatusOK, RebalanceResponse{
		Acted:  out.Acted,
		Before: out.Before,
		After:  out.After,
		Moved:  out.Moved,
		Detail: out.Detail,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding fails only on marshal errors of our own types or on a
	// closed connection; neither is recoverable here.
	_ = json.NewEncoder(w).Encode(v)
}
