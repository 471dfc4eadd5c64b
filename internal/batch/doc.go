// Package batch implements the miss path's singleflight coalescer: the
// layer between the Proximity cache and the vector database that stops
// concurrent cache misses for the same query from racing duplicate
// database searches.
//
// Coalescer is per-fingerprint singleflight. Concurrent misses whose
// embeddings are byte-identical share one database search; followers
// wait on the leader's flight and get a private copy of its results. A
// fingerprint collision between distinct embeddings searches on its
// own. A near-identical query may reuse a result only through the
// cache, which checks the tolerance. Pipeline binds a Coalescer directly
// to a vectordb.DB behind the same Search signature the retriever
// already uses, so it drops into core.CachedRetriever via the Searcher
// option (or anywhere a vectordb.DB is expected), and counts what it
// does for the server's stats.
//
// Collector is a separate, generic group-commit engine that the cluster
// router puts in front of each node: with no call in flight a request
// goes out at once, and the requests that arrive during a call share
// the next one. No timer holds a request back. The miss path does not
// batch: a batch of database searches shares no computation, so
// gathering one only adds its wait.
package batch
