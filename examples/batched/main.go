// Batched: measure the miss-coalescing pipeline.
//
// The program builds an IVF index over a synthetic corpus and replays a
// thundering-herd stream — every novel query arrives as a burst of
// near-simultaneous duplicates, the trending-query pattern — against the
// bare miss path (no cache, so the comparison isolates what the pipeline
// optimizes). It first measures each configuration's closed-loop
// capacity, then replays in open loop at a fixed rate between the two
// capacities: above what the direct path sustains, below what the
// coalesced path sustains. In-flight duplicates share one index search
// (singleflight); every other miss searches directly. The program exits
// non-zero on any failed query.
//
// Run with: go run ./examples/batched
package main

import (
	"fmt"
	"log"
	"math"

	"proximity"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		dim    = 256
		topics = 240
		burst  = 6
		k      = 4
	)
	enc := proximity.NewEmbedder(dim, 42, proximity.MedicalThesaurus())

	// A synthetic corpus clustered around topic words, served by an IVF
	// index.
	var corpus []proximity.Vector
	for t := 0; t < topics; t++ {
		for d := 0; d < 12; d++ {
			corpus = append(corpus, enc.Embed(fmt.Sprintf("passage %d about topic-%d detail-%d", d, t, d)))
		}
	}
	// Probe half of the coarse lists so one traversal carries
	// production-shaped cost relative to per-query fixed overheads.
	db, err := proximity.NewIVFIndex(corpus, proximity.L2Distance, proximity.IVFConfig{
		NProbe: 27,
		Seed:   1,
	})
	if err != nil {
		return err
	}

	// The herd: each topic's query arrives burst times back-to-back.
	wl := proximity.Workload{Name: "thundering-herd"}
	for t := 0; t < topics; t++ {
		text := fmt.Sprintf("common questions about topic-%d", t)
		emb := enc.Embed(text)
		for o := 0; o < burst; o++ {
			wl.Queries = append(wl.Queries, proximity.WorkloadQuery{
				Text:       text,
				Embedding:  emb,
				Question:   t,
				Occurrence: o,
			})
		}
	}

	newTarget := func(searcher proximity.Searcher) (proximity.LoadTarget, error) {
		retriever, err := proximity.NewRetriever(nil, db, proximity.RetrieverOptions{
			K:        k,
			Searcher: searcher,
		})
		if err != nil {
			return nil, err
		}
		return proximity.NewRetrieverTarget(retriever)
	}
	replay := func(searcher proximity.Searcher, opts proximity.LoadOptions) (*proximity.LoadReport, error) {
		target, err := newTarget(searcher)
		if err != nil {
			return nil, err
		}
		rep, err := proximity.RunLoad(target, wl, opts)
		if err == nil && rep.Errors > 0 {
			err = fmt.Errorf("%s loop: %d of %d queries failed, first: %v",
				rep.Mode, rep.Errors, rep.Queries, rep.FirstError)
		}
		return rep, err
	}

	// Phase 1: closed-loop capacity probes.
	closed := proximity.LoadOptions{Mode: proximity.ClosedLoop, Workers: 24}
	dCap, err := replay(nil, closed)
	if err != nil {
		return err
	}
	pipe, err := proximity.NewBatchPipeline(db, proximity.BatchOptions{})
	if err != nil {
		return err
	}
	cCap, err := replay(pipe, closed)
	if err != nil {
		return err
	}
	fmt.Printf("closed-loop capacity: direct %.0f qps, coalesced %.0f qps (%+.0f%%)\n\n",
		dCap.AchievedQPS, cCap.AchievedQPS,
		100*(cCap.AchievedQPS-dCap.AchievedQPS)/dCap.AchievedQPS)

	// Phase 2: open loop at the capacity midpoint — a load the direct
	// miss path cannot sustain but the coalesced one can.
	open := proximity.LoadOptions{
		Mode:    proximity.OpenLoop,
		QPS:     math.Sqrt(dCap.AchievedQPS * cCap.AchievedQPS),
		Workers: 24,
		Seed:    11,
	}
	fmt.Printf("=== direct miss path (open loop @ %.0f qps) ===\n", open.QPS)
	direct, err := replay(nil, open)
	if err != nil {
		return err
	}
	fmt.Print(direct.Render())

	fmt.Printf("=== coalesced miss path (open loop @ %.0f qps) ===\n", open.QPS)
	pipe, err = proximity.NewBatchPipeline(db, proximity.BatchOptions{})
	if err != nil {
		return err
	}
	coalesced, err := replay(pipe, open)
	if err != nil {
		return err
	}
	fmt.Print(coalesced.Render())

	st := pipe.Stats()
	fmt.Printf("pipeline: %d searches, %d coalesced (%.1f%%)\n",
		st.Searches, st.Coalesced, 100*st.CoalesceRate())
	fmt.Printf("p95: direct %v -> coalesced %v\n", direct.P95, coalesced.P95)
	return nil
}
