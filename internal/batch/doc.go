// Package batch implements the miss-coalescing batched retrieval
// pipeline: the layer between the Proximity cache and the vector
// database that amortizes index traversal across concurrent cache
// misses, the optimization serving-oriented RAG systems (RAGCache)
// identify as the dominant latency lever once lookups are concurrent.
//
// Two mechanisms stack:
//
//   - Coalescer: per-fingerprint singleflight. Concurrent misses whose
//     embeddings share a fingerprint (byte-identical by default, or
//     LSH-signature-equal for near-identical rephrasings) share one
//     database search; followers wait on the leader's flight and get a
//     private copy of its results instead of racing duplicate scans.
//   - Queue: a per-shard batch collector. Unique misses routed to a
//     queue gather until the batch reaches MaxBatch or a
//     microsecond-scale timeout elapses, then flush as one
//     vectordb.SearchBatch call — the IVF index probes each coarse cell
//     once per batch.
//
// Pipeline composes both behind the same Search signature the retriever
// already uses, so it drops into core.CachedRetriever via the Searcher
// option (or anywhere a vectordb.DB is expected). Requests inside a
// flush may ask for different k; the queue issues one batched search per
// distinct k (one call in the steady state, where every miss shares the
// retriever's ρ·K), so results are exact even over indexes whose
// candidate sets depend on k.
package batch
