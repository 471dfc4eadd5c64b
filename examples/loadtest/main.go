// Loadtest: drive a sharded Proximity cache with concurrent traffic and
// compare it against the single-mutex baseline.
//
// The program builds a synthetic corpus, replays a rephrased query
// stream in closed loop (every worker issues back-to-back, measuring
// peak throughput), then in open loop (Poisson arrivals at a target
// QPS, measuring latency under offered load), and prints the load
// reports plus the shard pressure table. It exits non-zero if any query
// fails.
//
// Run with: go run ./examples/loadtest
package main

import (
	"fmt"
	"log"
	"runtime"

	"proximity"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		dim     = 256
		topics  = 60
		repeats = 8
	)
	enc := proximity.NewEmbedder(dim, 42, proximity.MedicalThesaurus())

	// A synthetic corpus: a few hundred "passages" around topic words.
	db, err := proximity.NewFlatIndex(dim, proximity.L2Distance)
	if err != nil {
		return err
	}
	for t := 0; t < topics; t++ {
		for d := 0; d < 5; d++ {
			text := fmt.Sprintf("passage %d about topic-%d detail-%d", d, t, d)
			if err := db.Add(enc.Embed(text)); err != nil {
				return err
			}
		}
	}

	// The workload: each topic queried `repeats` times (exact repeats —
	// see examples/quickstart for the rephrasing demo), so a warm cache
	// answers (repeats-1)/repeats of the stream.
	wl := proximity.Workload{Name: "synthetic-topics"}
	embeds := make([]proximity.Vector, topics)
	for t := range embeds {
		embeds[t] = enc.Embed(fmt.Sprintf("common questions about topic-%d", t))
	}
	for r := 0; r < repeats; r++ {
		for t := 0; t < topics; t++ {
			wl.Queries = append(wl.Queries, proximity.WorkloadQuery{
				Text:       fmt.Sprintf("common questions about topic-%d", t),
				Embedding:  embeds[t],
				Question:   t,
				Occurrence: r,
			})
		}
	}

	// At least 8 shards so the comparison is meaningful on small hosts.
	shards := max(8, runtime.GOMAXPROCS(0))
	for _, cfg := range []struct {
		name   string
		shards int
	}{
		{"single-mutex (1 shard)", 1},
		{fmt.Sprintf("sharded (%d shards)", shards), shards},
	} {
		// Capacity is generous per shard: LSH routing concentrates
		// similar topics, and a tight hot shard would evict-thrash
		// (watch the pressure table's imbalance column for this).
		cache, err := proximity.NewShardedFlatCache(dim, cfg.shards, proximity.Options{
			Capacity:  8 * topics,
			Tolerance: 1.0,
			Policy:    proximity.LRU,
		}, 7)
		if err != nil {
			return err
		}
		retriever, err := proximity.NewRetriever(cache, db, proximity.RetrieverOptions{K: 2})
		if err != nil {
			return err
		}
		target, err := proximity.NewRetrieverTarget(retriever)
		if err != nil {
			return err
		}

		fmt.Printf("=== %s ===\n", cfg.name)
		closed, err := proximity.RunLoad(target, wl, proximity.LoadOptions{
			Mode:    proximity.ClosedLoop,
			Workers: 2 * shards,
		})
		if err != nil {
			return err
		}
		fmt.Print(closed.Render())
		if err := failed(closed); err != nil {
			return err
		}

		cache.Clear()
		open, err := proximity.RunLoad(target, wl, proximity.LoadOptions{
			Mode: proximity.OpenLoop,
			QPS:  2000,
			Seed: 11,
		})
		if err != nil {
			return err
		}
		fmt.Print(open.Render())
		if err := failed(open); err != nil {
			return err
		}
		// Clear drops entries but keeps counters, so this table's
		// hit/miss/put columns are cumulative across both passes.
		fmt.Print(cache.Report().Render())
		fmt.Println()
	}
	return nil
}

// failed reports a run's query failures as an error.
func failed(rep *proximity.LoadReport) error {
	if rep.Errors > 0 {
		return fmt.Errorf("%s loop: %d of %d queries failed, first: %v",
			rep.Mode, rep.Errors, rep.Queries, rep.FirstError)
	}
	return nil
}
