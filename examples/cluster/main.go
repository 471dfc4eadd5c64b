// Cluster: distributed shard routing over HTTP middleware nodes.
//
// The program spins three loopback shard nodes — each a full Proximity
// middleware with its own cache slice over a shared corpus — and routes
// a Zipf-skewed query stream across them by consistent hashing, through
// the per-node batch submitters (group commit: queries that arrive
// while a call to their node is in flight share its next call). It then
// kills one node mid-stream and replays the same queries: the ring
// retries the dead node's traffic on the next replica, so throughput
// degrades but not a single query fails, and the wrapping retriever
// would fall back to its local database even if every node died.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"proximity"
	"proximity/internal/core"
	"proximity/internal/server"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
	"proximity/internal/zipf"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		dim     = 128
		corpusN = 2048
		nodes   = 3
		queries = 3000
		unique  = 400
		k       = 4
	)

	// A shared random corpus; every node serves the same database, each
	// owning one slice of the cache keyspace.
	rng := vec.NewRand(1)
	vecs := make([]vec.Vector, corpusN)
	for i := range vecs {
		vecs[i] = vec.RandomGaussian(rng, dim)
	}
	db, err := vectordb.NewFlatFromVectors(vecs, vec.L2Distance)
	if err != nil {
		return err
	}

	bases := make([]string, nodes)
	stops := make([]func() error, nodes)
	for i := range bases {
		cache, err := core.NewFlat(dim, core.Options{Capacity: 512, Tolerance: 0.5, Policy: core.LRU})
		if err != nil {
			return err
		}
		retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: k})
		if err != nil {
			return err
		}
		srv, err := server.New(server.Config{Retriever: retr})
		if err != nil {
			return err
		}
		bound, stop, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		bases[i] = "http://" + bound
		stops[i] = stop
		fmt.Printf("node %d serving on %s\n", i, bases[i])
	}

	cc, err := proximity.NewClusterCache(dim, bases, proximity.ClusterOptions{Seed: 7})
	if err != nil {
		return err
	}
	defer cc.Close()

	// The cluster drops into the ordinary retrieval path: the client is
	// the cache, the local database the degraded-mode fallback.
	retr, err := proximity.NewRetriever(cc, db, proximity.RetrieverOptions{K: k})
	if err != nil {
		return err
	}

	// A Zipf-skewed stream over a fixed query pool: popular queries
	// repeat, so each owner's cache warms up.
	zrng := vec.NewRand(2)
	pool := make([]vec.Vector, unique)
	for i := range pool {
		pool[i] = vec.RandomGaussian(zrng, dim)
	}
	zf, err := zipf.NewSampler(vec.NewRand(3), unique, 0.9)
	if err != nil {
		return err
	}

	replay := func(label string) error {
		before := cc.RouterStats()
		// A small worker pool: queries bound for a node while a call
		// to it is in flight share its next batched HTTP call.
		const workers = 16
		jobs := make(chan vec.Vector)
		results := make(chan error)
		for w := 0; w < workers; w++ {
			go func() {
				for q := range jobs {
					_, err := retr.Retrieve(q)
					results <- err
				}
			}()
		}
		go func() {
			for i := 0; i < queries; i++ {
				jobs <- pool[zf.Next()]
			}
			close(jobs)
		}()
		failed := 0
		for i := 0; i < queries; i++ {
			if err := <-results; err != nil {
				failed++
			}
		}
		rs := cc.RouterStats()
		fmt.Printf("\n%s: %d queries, %d failed, %d cluster-served (%d remote cache hits), %d retried, %d local fallbacks\n",
			label, queries, failed, rs.Served-before.Served, rs.RemoteHits-before.RemoteHits,
			rs.Retried-before.Retried, rs.Failed-before.Failed)
		for i, ns := range cc.Status() {
			fmt.Printf("  node %d %-24s healthy=%-5v hits=%-5d misses=%-5d entries=%d | %d batched calls, mean batch %.2f\n",
				i, ns.Node, ns.Healthy, ns.Remote.Hits, ns.Remote.Misses,
				ns.Remote.Entries, ns.Submit.Flushes, ns.Submit.MeanBatch())
		}
		if failed > 0 {
			return fmt.Errorf("%d queries failed", failed)
		}
		return nil
	}

	if err := replay("warm-up (all nodes up)"); err != nil {
		return err
	}

	// Kill one node mid-deployment: its keyspace fails over to the next
	// ring replica; nothing is lost but speed.
	fmt.Printf("\nkilling node 0 (%s)...\n", bases[0])
	if err := stops[0](); err != nil {
		return err
	}
	defer func() {
		for _, stop := range stops[1:] {
			_ = stop()
		}
	}()
	if err := replay("degraded (node 0 dead, replica retry)"); err != nil {
		return err
	}

	fmt.Println("\nzero failed queries across both phases: the ring absorbs a dead node.")
	return nil
}
