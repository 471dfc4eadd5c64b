// Command proximity-server runs the Proximity retrieval middleware over a
// synthetic biomedical corpus: an HTTP service that embeds text queries,
// consults the approximate cache, and falls back to the vector database
// on misses — the deployment shape of the paper's Fig. 4.
//
// Usage:
//
//	proximity-server [-addr :8080] [-cache lsh|flat|none] [-tau 5]
//	                 [-capacity 200] [-bits 8] [-policy lru|fifo]
//	                 [-topics 20] [-docs-per-topic 20] [-dim 768]
//	                 [-shards N]
//	                 [-tier-warm N] [-tier-dir PATH] [-snapshot PATH]
//	                 [-trace-sample N] [-pprof] [-log-level info]
//	proximity-server -node [-addr :8081] ...
//	proximity-server -peers http://h1:8081,http://h2:8081 [-replicas 2]
//	                 [-rebalance-threshold T]
//
// Endpoints: POST /v1/query {"text": ...}, POST /v1/retrieve
// {"embedding": [...]}, POST /v1/retrieve/batch {"embeddings": [[...]]}
// (both also as raw little-endian float32 under Content-Type
// application/x-proximity-f32 — see "Wire format" in package proximity),
// GET /v1/stats, POST /v1/flush, POST /v1/rebalance, GET /healthz,
// GET /v1/healthz (build info), GET /metrics (Prometheus text),
// GET /v1/traces (recent sampled traces), and — with -pprof —
// /debug/pprof/.
//
// # Observability
//
// -trace-sample N samples 1 in N requests into a per-stage trace (cache
// lookup, coalesce wait, database search, node RPC); sampled traces are
// buffered and served at /v1/traces. In router mode the trace crosses the
// wire: the router sends its trace ID in the X-Proximity-Trace request
// header, the owning node records its stages under that ID, and the spans
// return in the X-Proximity-Trace-Spans response header to be stitched
// into one timeline. Per-stage latency histograms, cache/batch/ring
// counters, and runtime gauges are always exported at /metrics;
// -log-level gates the structured request/routing logs; -pprof opts the
// process into the net/http/pprof handlers.
//
// # Sharding and adaptive rebalancing
//
// With -shards N the local cache is partitioned across N
// independently-locked shards; the partition is fixed at startup, and
// /v1/stats reports its per-shard occupancy and imbalance. In router
// mode (-peers), -rebalance-threshold T (> 1) starts the adaptive
// controller: when the nodes' lookup imbalance stays above T for a
// sustained window, it re-weights ring virtual nodes to shift hash arcs
// off overloaded shard nodes. The flag needs -peers. /v1/rebalance
// triggers one action manually; the stats payload carries the
// controller counters.
//
// # Tiered cache and warm restart
//
// -tier-warm N layers a memory-mapped warm tier of N entries under the
// hot cache (-capacity entries of the -cache variant): hot evictions
// demote into the warm tier instead of being discarded, and — under LRU —
// a warm hit promotes its entry back into the hot tier. Admission
// semantics are unchanged; only more history is retained. -tier-dir
// places the warm record file (system temp by default; the file is
// unlinked while open, so nothing survives a crash).
//
// -snapshot PATH arms warm restarts: the cache contents load from PATH at
// startup (a missing snapshot is fine) and are written back crash-safely
// on SIGTERM/SIGINT, so a restarted server resumes near its previous hit
// rate instead of cold. PATH is one file for every local cache — flat or
// lsh, sharded or tiered; a per-shard snapshot directory written by older
// builds is refused with an error naming it. Snapshots are
// variant-agnostic — they replay through the live cache configuration, so
// the cache kind, tiering, or shard count may change across the restart.
// A restore of N entries is N PutWithTolerance calls and is counted as
// such: /v1/stats starts at N puts, plus any evictions the replay caused.
//
// # Cluster deployment
//
// A distributed cache tier runs one -node middleware per shard host plus
// a -peers router in front (see internal/cluster): the router
// consistent-hashes each query to its owning node's batched endpoint,
// retries the next ring replica when a node fails (5xx/transport), and
// degrades to its own local database when every replica is down. -node
// is the plain middleware — the flag only marks the role in logs — so
// every node serves the same corpus; -peers replaces the local cache
// with the cluster client (the -cache flags are ignored in router mode).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"proximity/internal/cluster"
	"proximity/internal/core"
	"proximity/internal/dataset"
	"proximity/internal/rebalance"
	"proximity/internal/server"
	"proximity/internal/shard"
	"proximity/internal/telemetry"
	"proximity/internal/tier"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "proximity-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("proximity-server", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		cacheKind = fs.String("cache", "lsh", "cache variant: lsh, flat, or none")
		tau       = fs.Float64("tau", 5, "similarity tolerance τ")
		capacity  = fs.Int("capacity", 200, "flat cache capacity c")
		bitsL     = fs.Int("bits", 8, "LSH signature width L")
		bucket    = fs.Int("bucket", core.DefaultBucketCapacity, "LSH per-bucket capacity b")
		policyStr = fs.String("policy", "lru", "eviction policy: lru or fifo")
		k         = fs.Int("k", 4, "documents returned per query")
		rerank    = fs.Int("rerank", 4, "over-fetch factor ρ")
		topics    = fs.Int("topics", 20, "synthetic corpus topics")
		docsPer   = fs.Int("docs-per-topic", 20, "passages per topic")
		questions = fs.Int("questions", 100, "synthetic questions (adds gold passages)")
		dim       = fs.Int("dim", 768, "embedding dimensionality")
		seed      = fs.Uint64("seed", 1, "generation seed")
		nodeMode  = fs.Bool("node", false, "run as a cluster shard node (plain middleware; marks the role in logs)")
		peers     = fs.String("peers", "", "run as a cluster router over this comma-separated shard-node list")
		replicas  = fs.Int("replicas", cluster.DefaultReplicas, "router: distinct nodes tried per query before local fallback")
		shards    = fs.Int("shards", 0, "partition the cache across N independently-locked shards (0 = unsharded)")
		rebThresh = fs.Float64("rebalance-threshold", 0,
			"router: re-weight the ring when node imbalance stays above this (> 1; 0 = off; needs -peers)")
		tierWarm = fs.Int("tier-warm", 0,
			"layer a memory-mapped warm tier of N entries under the hot cache (0 = single tier)")
		tierDir  = fs.String("tier-dir", "", "directory for warm-tier record files (default: system temp)")
		snapPath = fs.String("snapshot", "",
			"cache snapshot file loaded at startup and written on SIGTERM/SIGINT")
		traceSample = fs.Int("trace-sample", 0, "sample 1 in N requests into a per-stage trace served at /v1/traces (0 = off)")
		traceRing   = fs.Int("trace-ring", 0, "sampled traces kept for /v1/traces (0 = default 64)")
		pprofOn     = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		logLevel    = fs.String("log-level", "info", "structured-log threshold: debug, info, warn, or error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	tel := telemetry.New(telemetry.Options{SampleEvery: *traceSample, RingSize: *traceRing})
	if *nodeMode && *peers != "" {
		return fmt.Errorf("-node and -peers are mutually exclusive: a process is a shard node or the router, not both")
	}
	policy, err := core.ParsePolicy(*policyStr)
	if err != nil {
		return err
	}
	if *rebThresh != 0 && *rebThresh <= 1 {
		return fmt.Errorf("-rebalance-threshold must exceed 1.0 (perfect balance), got %v", *rebThresh)
	}
	if *rebThresh != 0 && *peers == "" {
		return fmt.Errorf("-rebalance-threshold needs -peers: it re-weights the router's ring, and a local cache's shards are fixed")
	}

	log.Printf("generating synthetic biomedical corpus (%d topics × %d passages + %d questions)...",
		*topics, *docsPer, *questions)
	bench, err := dataset.NewMedRAG(dataset.MedRAGConfig{
		Questions:    *questions,
		Topics:       *topics,
		DocsPerTopic: *docsPer,
		Dim:          *dim,
		Seed:         *seed,
	})
	if err != nil {
		return err
	}
	db, err := vectordb.NewFlatFromVectors(bench.Corpus.Embeddings, vec.L2Distance)
	if err != nil {
		return err
	}

	// Reject flag combinations that would otherwise be silently ignored.
	if *shards > 0 && *peers != "" {
		return fmt.Errorf("-shards applies to the local cache; router mode already shards across the -peers nodes")
	}
	if *shards > 0 && *cacheKind == "none" {
		return fmt.Errorf("-shards needs a cache (-cache none has nothing to partition)")
	}
	if *tierWarm > 0 && (*peers != "" || *cacheKind == "none") {
		return fmt.Errorf("-tier-warm needs a local cache (flat or lsh)")
	}
	if *snapPath != "" && (*peers != "" || *cacheKind == "none") {
		return fmt.Errorf("-snapshot needs a local cache (flat or lsh)")
	}

	// Shared tiered-cache options; only consulted when -tier-warm is set.
	topts := tier.Options{
		HotCapacity:  *capacity,
		WarmCapacity: *tierWarm,
		Tolerance:    float32(*tau),
		Policy:       policy,
		Dir:          *tierDir,
		Telemetry:    tel.Stages,
	}
	if *cacheKind == "lsh" {
		topts.NewHot = tier.LSHHot(core.LSHOptions{
			Bits:           *bitsL,
			BucketCapacity: *bucket,
			Seed:           *seed,
		})
	}

	var cache core.Cache
	var rebalancer server.Rebalancer
	switch {
	case *peers != "":
		// Router mode: the cluster client is the cache; the local
		// database serves only degraded-mode fallbacks. Every peer must
		// be a -node middleware over the same corpus configuration.
		bases := strings.Split(*peers, ",")
		for i := range bases {
			bases[i] = strings.TrimSpace(bases[i])
		}
		copts := cluster.Options{
			Seed:      *seed,
			Replicas:  *replicas,
			Telemetry: tel,
			Logger:    logger,
		}
		if *rebThresh > 0 {
			copts.Rebalance = &rebalance.Options{Threshold: *rebThresh}
		}
		cc, err := cluster.New(*dim, bases, copts)
		if err != nil {
			return err
		}
		defer cc.Close()
		cache = cc
		if ctrl := cc.Controller(); ctrl != nil {
			rebalancer = ctrl
		}
		*cacheKind = fmt.Sprintf("cluster(%d nodes)", len(bases))
	case *cacheKind == "none": // every query goes to the database
	case *tierWarm > 0 && *shards > 0:
		if *cacheKind != "flat" && *cacheKind != "lsh" {
			return fmt.Errorf("unknown cache kind %q", *cacheKind)
		}
		cache, err = shard.NewTiered(*dim, *shards, topts, *seed)
	case *tierWarm > 0:
		if *cacheKind != "flat" && *cacheKind != "lsh" {
			return fmt.Errorf("unknown cache kind %q", *cacheKind)
		}
		cache, err = tier.New(*dim, topts)
	case *cacheKind == "flat" && *shards > 0:
		cache, err = shard.NewFlat(*dim, *shards, core.Options{
			Capacity:  *capacity,
			Tolerance: float32(*tau),
			Policy:    policy,
		}, *seed)
	case *cacheKind == "lsh" && *shards > 0:
		cache, err = shard.NewLSH(*dim, *shards, core.LSHOptions{
			Bits:           *bitsL,
			BucketCapacity: *bucket,
			Tolerance:      float32(*tau),
			Policy:         policy,
			Seed:           *seed,
		})
	case *cacheKind == "flat":
		cache, err = core.NewFlat(*dim, core.Options{
			Capacity:  *capacity,
			Tolerance: float32(*tau),
			Policy:    policy,
		})
	case *cacheKind == "lsh":
		cache, err = core.NewLSH(*dim, core.LSHOptions{
			Bits:           *bitsL,
			BucketCapacity: *bucket,
			Tolerance:      float32(*tau),
			Policy:         policy,
			Seed:           *seed,
		})
	default:
		return fmt.Errorf("unknown cache kind %q", *cacheKind)
	}
	if err != nil {
		return err
	}
	if *snapPath != "" {
		n, err := core.LoadSnapshot(*snapPath, *dim, cache)
		if err != nil {
			return fmt.Errorf("loading snapshot: %w", err)
		}
		if n > 0 {
			log.Printf("warm restart: %d cache entries restored from %s", n, *snapPath)
		}
	}

	retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{
		K:         *k,
		Rerank:    *rerank,
		Source:    db,
		Telemetry: tel,
	})
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Retriever:   retr,
		Embedder:    bench.Embedder(),
		Docs:        corpusDocs{bench},
		Rebalancer:  rebalancer,
		Telemetry:   tel,
		EnablePprof: *pprofOn,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	role := "middleware"
	switch {
	case *nodeMode:
		role = "shard node"
	case *peers != "":
		role = "cluster router"
	}
	// Serve until SIGTERM/SIGINT, then write the snapshot (if armed) with
	// the listener already closed, so no in-flight fill can race the save.
	ctx, unnotify := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer unnotify()
	bound, stopSrv, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	extra := ""
	if *shards > 0 {
		extra = fmt.Sprintf(" shards=%d", *shards)
	}
	if rebalancer != nil {
		extra += fmt.Sprintf(" rebalance>%.2f", *rebThresh)
	}
	if *tierWarm > 0 {
		extra += fmt.Sprintf(" tier-warm=%d", *tierWarm)
	}
	log.Printf("proximity %s serving %d passages on %s (cache=%s τ=%v%s)",
		role, db.Len(), bound, *cacheKind, *tau, extra)
	<-ctx.Done()
	unnotify() // a second signal kills the process the default way
	if err := stopSrv(); err != nil {
		return err
	}
	if *snapPath != "" {
		n := cache.Len()
		// -snapshot refuses the router and -cache none above.
		if err := core.SaveSnapshot(*snapPath, *dim, cache); err != nil {
			return fmt.Errorf("saving snapshot: %w", err)
		}
		log.Printf("snapshot: %d cache entries written to %s", n, *snapPath)
	}
	if closer, ok := cache.(io.Closer); ok && *peers == "" {
		closer.Close()
	}
	log.Printf("proximity %s stopped", role)
	return nil
}

// parseLogLevel maps the -log-level flag onto slog levels.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
	}
}

// corpusDocs adapts the benchmark corpus to the server's Documents
// interface.
type corpusDocs struct{ bench *dataset.Benchmark }

func (c corpusDocs) Text(id int) (string, error) {
	if id < 0 || id >= c.bench.Corpus.Len() {
		return "", fmt.Errorf("doc %d out of range", id)
	}
	return c.bench.Corpus.Docs[id].Text, nil
}
