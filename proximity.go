// Package proximity is the public API of the Proximity reproduction: an
// approximate key-value cache that accelerates retrieval-augmented
// generation (RAG) by reusing the documents retrieved for similar past
// queries ("Leveraging Approximate Caching for Faster Retrieval-Augmented
// Generation", MIDDLEWARE '25).
//
// The cache sits between the RAG retriever and the vector database. Keys
// are query embeddings; values are retrieved document indices. A lookup
// hits when a cached key lies within a similarity tolerance τ of the
// incoming query, skipping the expensive nearest-neighbor search:
//
//	db, _ := proximity.NewFlatIndex(768, proximity.L2Distance)
//	db.Add(passageEmbeddings...)
//
//	cache, _ := proximity.NewLSHCache(768, proximity.LSHOptions{
//		Bits: 8, Tolerance: 5, Policy: proximity.LRU,
//	})
//	retriever, _ := proximity.NewRetriever(cache, db, proximity.RetrieverOptions{K: 4})
//
//	result, _ := retriever.Retrieve(queryEmbedding)
//	// result.Docs feed the LLM prompt; result.Hit tells whether the
//	// database was bypassed.
//
// Three cache variants are provided: the FLAT cache scans all entries
// (exact, O(c·d) per lookup), the LSH cache scans one random-hyperplane
// bucket (O((L+b)·d), independent of capacity), and the TIERED cache
// puts a small in-memory tier over a file-backed one; "Choosing a cache
// variant" below compares them. See the examples directory for complete
// programs.
//
// # Serving at scale: sharding and load generation
//
// Every cache variant serializes its operations behind one mutex, which
// is fine for single-stream experiments but becomes the bottleneck when
// the middleware serves many clients at once. NewShardedFlatCache and
// NewShardedLSHCache hash-partition keys across N independently-locked
// sub-caches (LSH-signature routing by default, so approximately-equal
// queries still collide on the same shard and hit); the result satisfies
// the same Cache interface and drops into NewRetriever unchanged:
//
//	cache, _ := proximity.NewShardedFlatCache(768, 0, proximity.Options{
//		Capacity: 4096, Tolerance: 5, Policy: proximity.LRU,
//	}, 1) // 0 shards = one per CPU
//	retriever, _ := proximity.NewRetriever(cache, db, proximity.RetrieverOptions{K: 4})
//
// The companion load generator replays any workload against a retriever
// (or the HTTP middleware) in closed loop (K workers back-to-back, a
// throughput probe) or open loop (Poisson arrivals at a target QPS, a
// latency-under-load probe), reporting achieved QPS and the p50/p95/p99
// latency distribution:
//
//	target, _ := proximity.NewRetrieverTarget(retriever)
//	rep, _ := proximity.RunLoad(target, wl, proximity.LoadOptions{
//		Mode: proximity.OpenLoop, QPS: 5000,
//	})
//	fmt.Print(rep.Render())
//
// See examples/loadtest for a complete program.
//
// # Miss coalescing
//
// Under concurrent traffic every cache miss still pays a full database
// search, and overlapping misses for the same query race duplicate
// searches. NewBatchPipeline puts per-fingerprint singleflight in front
// of the database: byte-identical in-flight misses share one search,
// and each follower gets a copy of the leader's result. A near-identical
// query reuses a result only through the cache, which checks τ. The
// pipeline does not batch distinct misses: a batch of database searches
// shares no computation, so gathering one only adds its wait.
// Plug it into a retriever through the Searcher option:
//
//	pipe, _ := proximity.NewBatchPipeline(db)
//	retriever, _ := proximity.NewRetriever(cache, db, proximity.RetrieverOptions{
//		K: 4, Searcher: pipe,
//	})
//
// See examples/batched for the measured comparison.
//
// # Distributed shard routing
//
// Sharding within one process caps the cache tier at one machine's
// cores. NewClusterCache routes queries across shard NODES — instances
// of the HTTP middleware, each owning a slice of the keyspace — by
// consistent hashing over the same LSH signatures the in-process
// partitioner routes by, so a near-duplicate query reaches the node that
// holds its key. The client satisfies Cache (and Searcher), so it
// drops into NewRetriever unchanged; a query goes to its node at once
// when no call to that node is in flight, and the queries that arrive
// during a call share the next batched HTTP call (no timer holds one
// back). A failing node is retried on the next ring replica, and when
// every replica is down the wrapping retriever falls back to its local
// database:
//
//	cc, _ := proximity.NewClusterCache(768, []string{
//		"http://10.0.0.1:8081", "http://10.0.0.2:8081",
//	}, proximity.ClusterOptions{})
//	defer cc.Close()
//	retriever, _ := proximity.NewRetriever(cc, db, proximity.RetrieverOptions{K: 4})
//
// See internal/cluster for the design note, examples/cluster for a
// complete program (including a node kill absorbed by replica retry),
// and `proximity-server -node` / `-peers` for the deployment shape.
//
// # Wire format
//
// The LSH cache answers in microseconds, so what a hit costs over HTTP
// is the embedding's trip through the request body. POST /v1/retrieve
// and POST /v1/retrieve/batch therefore take two request encodings,
// chosen by Content-Type; the response is JSON either way.
//
//   - application/x-proximity-f32: the components as little-endian
//     float32, nothing else — 3 072 bytes at dim 768 where the JSON
//     array is about 8.4 KB. The server knows dim from its database, so
//     length is the framing: a single request is exactly 4·dim bytes, a
//     batch a non-zero multiple of 4·dim (at most 256 vectors, back to
//     back). Any other length is a 400 (dimension mismatch), a NaN or
//     ±Inf component is a 400 — a NaN distance would silently fail every
//     d ≤ τ test — and a body more than one vector over the largest
//     valid one is a 413. The bundled HTTP client, and through it the
//     cluster router, always sends this.
//   - application/json (also no Content-Type, or what a bare `curl -d`
//     sends): {"embedding": [...]} / {"embeddings": [[...], ...]} as
//     before, now read through a size limit derived from dim (413 beyond
//     it). Any other Content-Type is a 415.
//
// By hand, for a server on :8080 (query.f32 holding dim float32s):
//
//	curl --data-binary @query.f32 -H 'Content-Type: application/x-proximity-f32' \
//		http://127.0.0.1:8080/v1/retrieve
//	curl -d '{"embedding":[0.12,-0.5,...]}' http://127.0.0.1:8080/v1/retrieve
//
// # Adaptive shard rebalancing
//
// A skewed (Zipf-like) query stream can concentrate LSH signatures on a
// few shards, so one hot shard's lock and scan length dominate tail
// latency while cold shards idle — visible as PressureReport.Imbalance.
// NewAdaptiveShardedCache closes the loop: a controller watches the
// report and, when the imbalance stays above a threshold for a sustained
// window, re-draws the partitioner to the best of several auditioned
// candidate seeds and migrates entries shard-by-shard with no
// stop-the-world lock (transient misses are the only cost — never a
// failed or wrong answer):
//
//	base, _ := proximity.NewShardedFlatCache(768, 8, proximity.Options{
//		Capacity: 8192, Tolerance: 5, Policy: proximity.LRU,
//	}, 1)
//	cache, _ := proximity.NewAdaptiveShardedCache(base,
//		proximity.RebalanceOptions{}, proximity.ShardRebalanceOptions{})
//	defer cache.Close()
//	retriever, _ := proximity.NewRetriever(cache, db, proximity.RetrieverOptions{K: 4})
//
// The distributed tier gets the same policy at the network level:
// ClusterOptions.Rebalance re-weights ring virtual nodes to shift hash
// arcs off overloaded nodes. See internal/rebalance for the design note,
// examples/rebalance for a complete program, `proximity-server
// -rebalance-threshold` (plus the /v1/rebalance admin endpoint) for the
// deployment shape, and `proximity-bench -experiment rebalance` for the
// static-vs-adaptive A/B on a skewed workload.
//
// # Choosing a cache variant
//
//   - FLAT: exact and allocation-light; the right default below a few
//     thousand entries. The scan stops each key's distance as soon as it
//     provably exceeds τ, so its cost tracks how crowded the keys are
//     around τ rather than c·d.
//   - LSH: constant-time lookups at any capacity, but hit quality
//     depends on bucket geometry — near-τ pairs can land in different
//     buckets, and fixed-capacity buckets evict under skew.
//   - TIERED: a small hot tier at in-memory speed over a much larger
//     memory-mapped warm tier — total admission semantics bit-identical
//     to one FLAT cache of the combined capacity, at a fraction of the
//     heap. The right choice when the working set is far larger than
//     the memory budget, or when warm restart matters (the cold-tier
//     snapshot survives process death). Hot-path cost stays within
//     ~10% of a FLAT cache the hot tier's size (BENCH_tiered.json);
//     deep hits pay the warm scan, so size the hot tier to the
//     traffic's head.
//
// # Tiered cache hierarchy
//
// At production scale the working set outgrows any single memory
// budget, and a restart (deploy, crash, autoscale) throws the whole
// cache away and stampedes the vector database. NewTieredCache layers
// three tiers so neither has to happen:
//
//   - HOT: a full in-memory cache (FLAT by default, LSH via
//     TieredOptions.NewHot) sized to the traffic's head.
//   - WARM: a memory-mapped fixed-record vector file with each key's
//     first 16 floats kept in memory — entries the hot tier would have
//     evicted are demoted here instead, searched by a scan that rules
//     most keys out on those heads and reads a record only for the
//     rest, at file-cache cost rather than heap cost.
//   - COLD: a versioned on-disk snapshot (SaveSnapshot/LoadSnapshot, the
//     one format every cache variant writes) that brings both tiers back
//     after a restart, so a redeployed or newly joined node starts warm
//     instead of hammering the database.
//
// Eviction demotes instead of discarding; a warm hit under the LRU
// policy promotes the entry back into the hot tier. The combined
// hierarchy admits and evicts bit-identically to a single FLAT cache of
// the summed capacity (property-tested), so τ semantics are unchanged —
// only the cost model moves:
//
//	cache, _ := proximity.NewTieredCache(768, proximity.TieredOptions{
//		HotCapacity: 100_000, WarmCapacity: 1_600_000,
//		Tolerance: 5, Policy: proximity.LRU, Dir: "/var/cache/proximity",
//	})
//	defer cache.Close()
//
// NewShardedTieredCache partitions the hierarchy across
// independently-locked shards (per-shard warm files, Reseed-safe; one
// snapshot file for the whole cache). The Tier block of a tiered
// cache's Stats (sharded or not; rendered as the server's /v1/stats
// tiers block and the proximity_tier_* Prometheus series) reports
// per-tier occupancy and the demotion/promotion/discard flows, read in
// the same snapshot as the cache-wide counters, so hot plus warm hits
// equal Hits.
// `proximity-server -tier-warm N -tier-dir PATH -snapshot PATH` deploys
// it with snapshot-on-shutdown and load-on-start, and `proximity-bench
// -experiment tiered` measures the hierarchy against a hot-sized FLAT
// cache — the committed BENCH_tiered.json shows the hot path within
// ~9% at 1:4 and 1:16 warm ratios, +0.50 hit-rate uplift from the warm
// tier, and full hit-rate recovery across a snapshot restart.
//
// # Observability
//
// NewTelemetry creates the zero-dependency observability hub the whole
// stack shares: lock-free per-stage latency histograms (cache lookup,
// cache fill, coalesce wait, database search, node RPC), a pooled 1-in-N
// request tracer, and a metrics registry. Wire one hub through
// RetrieverOptions.Telemetry, ClusterOptions.Telemetry, and the
// server's Config.Telemetry and every layer reports into the same
// place:
//
//	tel := proximity.NewTelemetry(proximity.TelemetryOptions{SampleEvery: 100})
//	retriever, _ := proximity.NewRetriever(cache, db, proximity.RetrieverOptions{
//		K: 4, Telemetry: tel,
//	})
//
// The HTTP middleware then serves:
//
//   - GET /metrics — Prometheus text exposition (0.0.4): cache
//     hit/miss/eviction counters, tier and batch-pipeline counters,
//     occupancy gauges, runtime gauges, and
//     one proximity_stage_latency_seconds histogram per stage.
//   - GET /v1/traces — the most recent sampled traces as JSON, each a
//     span timeline attributing one request's latency to stages.
//   - GET /v1/healthz — build info (module version, Go version).
//   - /debug/pprof/ — net/http/pprof, opt-in via the server's
//     Config.EnablePprof (`proximity-server -pprof`).
//
// Traces cross cluster hops: the router sends the trace ID in the
// X-Proximity-Trace request header (16 hex digits), the owning node
// records its stages under that ID, and the node's spans come back in
// the X-Proximity-Trace-Spans response header (a JSON span array) to be
// grafted into the parent trace, labeled with the node's address — one
// trace ID spans the client's node_rpc attempts and every node-side
// stage, surviving replica retries.
//
// `proximity-bench -experiment overhead` measures the layer's cost on
// the cached-hit path (committed in BENCH_telemetry.json: indistinguish-
// able from zero with sampling off). Sampling is off by default
// (TelemetryOptions.SampleEvery 0); an unsampled request pays only nil
// checks and histogram observations.
//
// # Static analysis
//
// The invariants the benchmarks and crash-safety guarantees rest on are
// machine-checked by cmd/proximity-vet, a zero-dependency analysis
// suite (internal/lint) that CI runs next to go vet:
//
//	go run ./cmd/proximity-vet ./...
//
// Six analyzers cover the repo's standing rules: hotpathalloc (no
// allocations in //proximity:hotpath functions beyond their documented
// budget), lockdiscipline (no file I/O, network, fmt, or blocking
// telemetry work while a cache or shard mutex is held, and every Lock
// has an Unlock), stagenames (Prometheus series names come from the
// telemetry.Metric* registry, so a typo cannot fork a series),
// atomicwrite (artifacts are written via the atomic temp+rename helper,
// never raw os.WriteFile/os.Create), ctxflow (functions receiving a
// context.Context thread it into context-aware callees), and bodydrain
// (HTTP response bodies are drained before Close so keep-alive
// connections are reused).
//
// Two comment directives steer the suite: //proximity:hotpath in a
// function's doc comment opts it into the allocation check, and
// //proximity:allow <analyzer> <reason> on (or directly above) a
// flagged line suppresses one finding — by convention always with the
// reason. The dynamic halves of the hot-path budgets live in
// internal/perfguard as testing.AllocsPerRun regressions.
package proximity

import (
	"proximity/internal/batch"
	"proximity/internal/cluster"
	"proximity/internal/core"
	"proximity/internal/embed"
	"proximity/internal/loadgen"
	"proximity/internal/rebalance"
	"proximity/internal/shard"
	"proximity/internal/telemetry"
	"proximity/internal/tier"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
	"proximity/internal/workload"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Vector is a dense embedding vector.
	Vector = vec.Vector
	// Scored pairs a document ID with its distance to a query.
	Scored = vec.Scored
	// Metric identifies a database distance function; caches use L2.
	Metric = vec.Metric

	// Cache is the approximate key-value cache interface.
	Cache = core.Cache
	// Options configures a FLAT cache.
	Options = core.Options
	// LSHOptions configures an LSH cache.
	LSHOptions = core.LSHOptions
	// Policy selects the eviction strategy.
	Policy = core.Policy
	// Stats are cumulative cache counters.
	Stats = core.Stats
	// TieredCache is the hot/warm/cold cache hierarchy (in-memory hot
	// tier, memory-mapped warm tier, snapshot cold tier).
	TieredCache = tier.TieredCache
	// TieredOptions configures a TieredCache.
	TieredOptions = tier.Options
	// TierStats are cumulative per-tier counters and gauges.
	TierStats = core.TierStats
	// Retriever is the cache-in-front-of-database retrieval path.
	Retriever = core.CachedRetriever
	// RetrieverOptions configures a Retriever.
	RetrieverOptions = core.RetrieverOptions
	// Result reports one retrieval.
	Result = core.Result

	// DB is the vector-database search interface the cache fronts.
	DB = vectordb.DB
	// VectorSource resolves document IDs to stored vectors (needed
	// for re-ranking).
	VectorSource = vectordb.VectorSource
	// FlatIndex is an exact in-memory nearest-neighbor index.
	FlatIndex = vectordb.FlatIndex
	// LatencyModel simulates production-scale database service times.
	LatencyModel = vectordb.LatencyModel

	// Embedder converts text into vectors.
	Embedder = embed.Embedder
	// TokenHashEmbedder is the deterministic offline encoder.
	TokenHashEmbedder = embed.TokenHash
	// Thesaurus supplies synonym knowledge to the encoder.
	Thesaurus = embed.Thesaurus

	// ShardedCache hash-partitions keys across independently-locked
	// sub-caches for concurrent serving.
	ShardedCache = shard.ShardedCache
	// ShardOptions configures a generic ShardedCache.
	ShardOptions = shard.Options
	// PressureReport is the per-shard occupancy/eviction summary.
	PressureReport = shard.PressureReport

	// Workload is an ordered query stream (see internal/workload for
	// the paper's uniform, Zipf, and TripClick builders).
	Workload = workload.Workload
	// WorkloadQuery is one workload element.
	WorkloadQuery = workload.Query

	// LoadTarget is anything the load generator can drive.
	LoadTarget = loadgen.Target
	// LoadOptions configures a load-generation run.
	LoadOptions = loadgen.Options
	// LoadMode selects open- vs closed-loop traffic.
	LoadMode = loadgen.Mode
	// LoadReport summarizes a run: throughput, hit rate, and the
	// latency distribution.
	LoadReport = loadgen.Report

	// Searcher is the miss-path search hook of RetrieverOptions.
	Searcher = core.Searcher
	// BatchPipeline is the miss-coalescing search path.
	BatchPipeline = batch.Pipeline
	// BatchStats are cumulative pipeline counters.
	BatchStats = batch.Stats
	// IVFIndex is the inverted-file ANN index.
	IVFIndex = vectordb.IVFIndex
	// IVFConfig parameterizes IVF construction.
	IVFConfig = vectordb.IVFConfig

	// ClusterCache routes queries across HTTP shard nodes by consistent
	// hashing (drop-in Cache/Searcher; see internal/cluster).
	ClusterCache = cluster.Client
	// ClusterOptions configures a ClusterCache.
	ClusterOptions = cluster.Options
	// ClusterRing is the consistent-hash ring over shard nodes.
	ClusterRing = cluster.Ring
	// ClusterNodeStatus is one node's slice of a cluster Status snapshot.
	ClusterNodeStatus = cluster.NodeStatus
	// ClusterRouterStats are the cluster client's routing counters.
	ClusterRouterStats = cluster.RouterStats

	// RebalanceOptions is the adaptive rebalance controller policy:
	// threshold, sustained window, cooldown, sampling interval.
	RebalanceOptions = rebalance.Options
	// RebalanceController is the watch-and-act loop behind adaptive
	// rebalancing (shared by the shard and cluster tiers).
	RebalanceController = rebalance.Controller
	// RebalanceStats are the controller's cumulative counters.
	RebalanceStats = rebalance.Stats
	// RebalanceOutcome reports one rebalance action.
	RebalanceOutcome = rebalance.Outcome
	// ShardRebalanceOptions tunes the in-process re-draw actuator
	// (candidate seed count, minimum predicted gain).
	ShardRebalanceOptions = rebalance.ShardTargetOptions
	// ShardMigration summarizes one partitioner re-draw migration.
	ShardMigration = shard.Migration

	// Telemetry is the shared observability hub: per-stage latency
	// histograms, the request tracer, and the metrics registry.
	Telemetry = telemetry.Telemetry
	// TelemetryOptions configures a Telemetry hub (sampling rate, trace
	// ring size).
	TelemetryOptions = telemetry.Options
	// TraceStage identifies one pipeline stage within a trace or
	// histogram (cache lookup, coalesce wait, database search, ...).
	TraceStage = telemetry.Stage
	// TraceSpan is one timed stage within a trace.
	TraceSpan = telemetry.Span
	// TraceRecord is a completed sampled trace as served at /v1/traces.
	TraceRecord = telemetry.TraceRecord
)

// Eviction policies.
const (
	// FIFO evicts the oldest inserted entry.
	FIFO = core.FIFO
	// LRU evicts the least recently used entry.
	LRU = core.LRU
)

// Load-generation traffic modes.
const (
	// ClosedLoop runs K workers back-to-back (throughput probe).
	ClosedLoop = loadgen.ClosedLoop
	// OpenLoop paces Poisson arrivals at a target QPS (latency probe).
	OpenLoop = loadgen.OpenLoop
)

// Distance metrics. Every cache compares keys by L2, the metric of the
// paper's evaluation; CosineDistance and InnerProduct are database
// metrics only (NewFlatIndex, NewIVFIndex). The paper's cache adopts the
// database's metric (§3.1), so in front of a cosine database normalize
// every embedding to unit length before it reaches the cache or the
// database — for unit vectors 1 − cos(a, b) = ‖a − b‖²/2 — and give the
// cache τ = √(2·τ_cos). It then hits, misses and serves as a cosine cache
// at τ_cos would, but for float rounding on queries within about 1e-5 of
// τ_cos.
const (
	// L2Distance is the Euclidean distance (the paper's metric).
	L2Distance = vec.L2Distance
	// CosineDistance is 1 - cosine similarity.
	CosineDistance = vec.CosineDistance
	// InnerProduct is the negated dot product.
	InnerProduct = vec.InnerProduct
)

// NewTelemetry creates an observability hub (see the package doc's
// Observability section). A nil hub is valid everywhere one is accepted
// and disables all instrumentation.
func NewTelemetry(opts TelemetryOptions) *Telemetry {
	return telemetry.New(opts)
}

// NewFlatCache creates a Proximity-FLAT cache for dim-dimensional query
// embeddings (linear scan, exact within the cached set).
func NewFlatCache(dim int, opts Options) (*core.FlatCache, error) {
	return core.NewFlat(dim, opts)
}

// NewLSHCache creates a Proximity-LSH cache (random-hyperplane bucketed,
// constant-time lookups).
func NewLSHCache(dim int, opts LSHOptions) (*core.LSHCache, error) {
	return core.NewLSH(dim, opts)
}

// NewTieredCache creates a hot/warm/cold cache hierarchy: an in-memory
// hot tier of HotCapacity entries over a memory-mapped warm tier of
// WarmCapacity entries (backed by a vector file under Dir), with
// eviction demoting to warm instead of discarding and — under the LRU
// policy — warm hits promoting back to hot. Admission and eviction are
// bit-identical to a single FLAT cache of the combined capacity. Close
// releases the warm mapping; SaveSnapshot/LoadSnapshot persist and
// restore both tiers for warm restart. See the package doc's tiered
// section for sizing guidance.
func NewTieredCache(dim int, opts TieredOptions) (*TieredCache, error) {
	return tier.New(dim, opts)
}

// NewShardedTieredCache partitions a tiered hierarchy across `shards`
// independently-locked sub-caches (0 = one per CPU). Hot and warm
// capacities are totals across shards; each shard keeps its own warm
// file under TieredOptions.Dir. SaveSnapshot writes the whole result as
// one file, and LoadSnapshot routes each entry through the live
// partitioner. seed fixes the shard routing.
func NewShardedTieredCache(dim, shards int, opts TieredOptions, seed uint64) (*ShardedCache, error) {
	return shard.NewTiered(dim, shards, opts, seed)
}

// NewRetriever wires a cache in front of a vector database. cache may be
// nil for a no-cache baseline.
func NewRetriever(cache Cache, db DB, opts RetrieverOptions) (*Retriever, error) {
	return core.NewCachedRetriever(cache, db, opts)
}

// SaveSnapshot writes cache's entries to path as one snapshot file, in
// eviction order, crash-safely (temp file and rename). Every cache
// variant — sharded and tiered included — saves the same format.
func SaveSnapshot(path string, dim int, cache Cache) error {
	return core.SaveSnapshot(path, dim, cache)
}

// LoadSnapshot replays the snapshot at path into cache and returns how
// many entries it replayed (warm restart). The cache may be of another
// variant, shard count or tiering than the one that wrote the file. A
// missing file restores 0 entries with no error; a snapshot of another
// dimension is refused. A restore of N entries is N PutWithTolerance
// calls and is counted as such in Stats.
func LoadSnapshot(path string, dim int, cache Cache) (int, error) {
	return core.LoadSnapshot(path, dim, cache)
}

// NewShardedCache creates an LSH-signature-partitioned cache from an
// explicit per-shard factory. Any Cache variant here may back a shard.
func NewShardedCache(dim int, opts ShardOptions) (*ShardedCache, error) {
	return shard.New(dim, opts)
}

// NewShardedFlatCache partitions a FLAT cache across `shards`
// independently-locked sub-caches (0 = one per CPU). The configured
// capacity is the total across shards, so the result is a drop-in for a
// single FLAT cache of the same size; seed fixes the shard routing.
func NewShardedFlatCache(dim, shards int, opts Options, seed uint64) (*ShardedCache, error) {
	return shard.NewFlat(dim, shards, opts, seed)
}

// NewShardedLSHCache partitions an LSH cache across `shards`
// independently-locked sub-caches (0 = one per CPU), each keeping the
// full bucket geometry.
func NewShardedLSHCache(dim, shards int, opts LSHOptions) (*ShardedCache, error) {
	return shard.NewLSH(dim, shards, opts)
}

// AdaptiveShardedCache is a ShardedCache coupled to a running rebalance
// controller: sustained shard imbalance triggers a partitioner re-draw
// that migrates entries shard-by-shard. It exposes the full ShardedCache
// surface (and therefore Cache); Close stops the controller (the cache
// itself remains usable).
type AdaptiveShardedCache struct {
	*ShardedCache
	ctrl *rebalance.Controller
}

// NewAdaptiveShardedCache attaches an adaptive rebalancing loop to a
// sharded cache (built with NewShardedFlatCache, NewShardedLSHCache, or
// NewShardedCache). The controller is already started; call Close to
// stop it.
func NewAdaptiveShardedCache(cache *ShardedCache, policy RebalanceOptions, target ShardRebalanceOptions) (*AdaptiveShardedCache, error) {
	t, err := rebalance.NewShardTarget(cache, target)
	if err != nil {
		return nil, err
	}
	ctrl, err := rebalance.New(t, t, policy)
	if err != nil {
		return nil, err
	}
	if err := ctrl.Start(); err != nil {
		return nil, err
	}
	return &AdaptiveShardedCache{ShardedCache: cache, ctrl: ctrl}, nil
}

// Controller returns the running rebalance controller (stats, manual
// triggers).
func (a *AdaptiveShardedCache) Controller() *RebalanceController { return a.ctrl }

// Close stops the rebalance controller. The underlying cache stays
// usable; only the adaptive loop ends.
func (a *AdaptiveShardedCache) Close() error { return a.ctrl.Close() }

// NewBatchPipeline creates the miss-coalescing search path over a
// database: concurrent duplicate misses share one search. Wire it into
// NewRetriever through RetrieverOptions.Searcher (it also satisfies DB
// directly).
func NewBatchPipeline(db DB) (*BatchPipeline, error) {
	return batch.New(db)
}

// NewClusterCache routes queries across shard nodes — instances of the
// HTTP middleware at the given base URLs — by consistent hashing over
// the same LSH signatures the in-process partitioner routes by. The
// result satisfies Cache and Searcher, so it drops into NewRetriever
// unchanged; call Close when done to drain the per-node batch
// submitters.
func NewClusterCache(dim int, nodes []string, opts ClusterOptions) (*ClusterCache, error) {
	return cluster.New(dim, nodes, opts)
}

// NewIVFIndex clusters a vector corpus into an inverted-file index whose
// Search scans only the coarse cells nearest the query.
func NewIVFIndex(vectors []Vector, metric Metric, cfg IVFConfig) (*IVFIndex, error) {
	return vectordb.BuildIVF(vectors, metric, cfg)
}

// NewRetrieverTarget adapts a Retriever for the load generator.
func NewRetrieverTarget(r *Retriever) (LoadTarget, error) {
	return loadgen.NewRetrieverTarget(r)
}

// NewHTTPTarget adapts a running middleware (see internal/server) at
// base, e.g. "http://127.0.0.1:8080", for the load generator.
func NewHTTPTarget(base string) LoadTarget {
	return loadgen.NewHTTPTarget(base)
}

// RunLoad replays a workload against a target under concurrent load,
// reporting throughput, hit rate, and latency quantiles.
func RunLoad(target LoadTarget, w Workload, opts LoadOptions) (*LoadReport, error) {
	return loadgen.Run(target, w, opts)
}

// NewFlatIndex creates an exact in-memory vector index.
func NewFlatIndex(dim int, metric Metric) (*FlatIndex, error) {
	return vectordb.NewFlatIndex(dim, metric)
}

// NewEmbedder creates the deterministic token-hash encoder. thesaurus may
// be nil. Production deployments replace this with a neural encoder; any
// Embedder implementation works.
func NewEmbedder(dim int, seed uint64, thesaurus *Thesaurus) *TokenHashEmbedder {
	if thesaurus == nil {
		return embed.NewTokenHash(dim, seed)
	}
	return embed.NewTokenHash(dim, seed, embed.WithThesaurus(thesaurus))
}

// NewThesaurus creates an empty synonym table.
func NewThesaurus() *Thesaurus { return embed.NewThesaurus() }

// MedicalThesaurus returns a small built-in biomedical synonym table used
// by the examples.
func MedicalThesaurus() *Thesaurus { return embed.EnglishMedical() }
