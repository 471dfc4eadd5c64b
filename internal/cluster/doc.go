// Package cluster turns the in-process cache partitioner into a
// network-transparent router: queries are consistent-hashed across shard
// NODES — instances of the HTTP middleware (internal/server), each
// owning a slice of the cache keyspace — instead of across in-process
// sub-caches. This is the horizontal half of the paper's §4 deployment
// story: the middleware sits in front of the vector database precisely
// so the cache tier can scale independently of retrieval, and one
// process's cores cap what internal/shard alone can serve. Serving-tier
// RAG caches make the same argument (RAGCache, arXiv:2404.12457;
// Cache-Craft, arXiv:2502.15734).
//
// # Ring
//
// Routing reuses the in-process partitioner's key, a random-hyperplane
// LSH signature, so that near-identical rephrasings land on the same
// node and approximate cache hits survive distribution. The key selects a node
// through a consistent-hash ring (Ring): each node projects DefaultVNodes
// virtual points onto a 64-bit circle, and a key belongs to the first
// point clockwise of its position. A node joining a ring of N therefore
// takes over only the arcs adjacent to its points — expected 1/(N+1) of
// the keyspace — so the other nodes keep their warm cache entries, where
// a modulo partitioner would reshuffle nearly everything; re-weighting
// (Client.Rebalance) moves arcs the same way. Rings are immutable values;
// the Client swaps in a rebuilt ring under a brief write lock and lookups
// never block.
//
// # Replica retry and health
//
// Ring.Lookup returns every node in clockwise walk order, and the Client
// treats that order as the failover chain: a transport error or 5xx
// reply sidelines the node (it was reachable input-independently sick —
// the 400-vs-500 split in the server's error mapping exists exactly so
// this decision is safe) and the query retries on the next distinct
// node, up to Replicas attempts. A 4xx reply surfaces immediately: the
// input is malformed and every replica would reject it identically.
// Sidelined nodes are skipped by routing until DefaultProbeCooldown elapses,
// then ONE background /healthz probe (short admin timeout, never on a
// request path) decides whether the node rejoins — so a dead node costs
// the cluster one failed round trip plus one async probe per cooldown,
// not one timeout per query.
//
// # Per-node batch submitters
//
// Each node sits behind a batch.Collector doing group commit, with no
// timer: a query that finds no call to its node in flight goes out at
// once, as a batch of one, and the queries that arrive while a call is
// in flight share the next /v1/retrieve/batch call (at most
// server.MaxBatchElements, what the node accepts). A lone client thus
// pays one round trip per query, and under load the batch grows with
// the arrival rate, amortizing the HTTP round trip its requests share.
// It composes with the node-side pipeline: the node serves a batch's
// elements concurrently, so duplicates in one burst reach its coalescer
// together. When a call to a node fails outright, the queries queued
// behind it fail with it and retry on their next replica, so none waits
// behind more than one failed call to a node. The router refuses a
// query with a NaN or ±Inf component before routing it, since the
// node would refuse the whole batch that carried it.
//
// # Wire format
//
// Both hops to a node — the batched flush and the direct, traced
// /v1/retrieve — carry embeddings as Content-Type
// application/x-proximity-f32: little-endian float32 components with no
// framing, the batch's vectors back to back. The node frames by length
// (exactly 4·dim bytes for one vector, a non-zero multiple of 4·dim and
// at most 256 vectors for a batch; anything else is a 400 dimension
// mismatch) and refuses NaN and ±Inf components with a 400, so a router
// bug cannot plant an unmatchable key in a node's cache; both are 4xx
// and therefore not retried on the next replica. The format is the same
// on every host; only a little-endian router sends an embedding's own
// memory as the body of a direct call, where other hosts convert each
// component. Replies are JSON, byte for byte what encoding/json writes.
// Nodes still accept JSON requests, so a node can be probed by hand with
// either:
//
//	curl --data-binary @query.f32 -H 'Content-Type: application/x-proximity-f32' \
//		http://node:8081/v1/retrieve
//	curl -d '{"embedding":[0.12,-0.5,...]}' http://node:8081/v1/retrieve
//
// # Dropping into the retrieval path
//
// Client satisfies both core.Cache and core.Searcher:
//
//   - As a Cache, Get routes the query to its owner, which runs the full
//     cache-or-database path; any successful reply is a "hit" locally
//     (the work is done — the local process must not redo it), and
//     Put/PutWithTolerance are no-ops because nodes fill their own
//     caches. Only when every tried replica fails does Get report a
//     miss, letting the wrapping core.CachedRetriever fall back to its
//     LOCAL database: a degraded cluster loses speed, never
//     availability.
//   - As a Searcher, Search serves the miss path of a retriever that
//     keeps its own front cache, with positional (order-faithful, not
//     metric-faithful) distances.
//
// See cmd/proximity-server (-node / -peers) for the deployment shape and
// examples/cluster for a complete program.
package cluster
