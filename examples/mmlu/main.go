// MMLU example: run the paper's uniform MMLU workflow (every question
// asked four times in slight variations, §4.2.2) against an HNSW-served
// corpus, comparing the no-cache baseline with Proximity-FLAT at several
// tolerances — a miniature of Fig. 6.
//
// Run with: go run ./examples/mmlu [-full]
package main

import (
	"flag"
	"fmt"
	"log"

	"proximity/internal/core"
	"proximity/internal/dataset"
	"proximity/internal/hnsw"
	"proximity/internal/llm"
	"proximity/internal/rag"
	"proximity/internal/report"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
	"proximity/internal/workload"
)

func main() {
	full := flag.Bool("full", false, "paper-sized benchmark (131 questions, dim 768)")
	flag.Parse()
	if err := run(*full); err != nil {
		log.Fatal(err)
	}
}

func run(full bool) error {
	cfg := dataset.MMLUConfig{Questions: 40, Topics: 10, DocsPerTopic: 8, Dim: 256, Seed: 7}
	if full {
		cfg = dataset.MMLUConfig{Seed: 7} // paper defaults
	}
	fmt.Println("building MMLU-sim benchmark (econometrics-style questions over a topic-clustered corpus)...")
	bench, err := dataset.NewMMLU(cfg)
	if err != nil {
		return err
	}

	// The paper serves wiki_dpr with FAISS-HNSW; we build a real HNSW
	// graph over the scaled corpus.
	ix, err := hnsw.New(bench.Dim(), vec.L2Distance, 8)
	if err != nil {
		return err
	}
	if err := ix.Add(bench.Corpus.Embeddings...); err != nil {
		return err
	}
	fmt.Printf("indexed %d passages (dim %d) in an HNSW graph\n\n", ix.Len(), bench.Dim())

	w, err := workload.UniformVariants(bench, 4, 9)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d queries (%d questions × 4 variants, shuffled)\n\n", w.Len(), len(bench.Questions))

	tbl := report.NewTable("MMLU uniform workload — Proximity-FLAT vs no cache",
		"config", "hit rate [%]", "accuracy [%]", "mean retrieval", "db calls")
	for _, tau := range []float64{0, 1, 2, 5} {
		var cache core.Cache
		name := "no cache"
		if tau > 0 {
			name = fmt.Sprintf("flat τ=%v c=100", tau)
			cache, err = core.NewFlat(bench.Dim(), core.Options{Capacity: 100, Tolerance: float32(tau)})
			if err != nil {
				return err
			}
		}
		retr, err := core.NewCachedRetriever(cache, ix, core.RetrieverOptions{
			K: bench.DefaultK,
			// Simulated service time of the paper's 21M-vector
			// deployment (the local corpus is scaled down).
			Latency: vectordb.WikiDPRHNSWLatency(11),
		})
		if err != nil {
			return err
		}
		ans, err := llm.NewAnswerer(bench.Profile, 11)
		if err != nil {
			return err
		}
		p := rag.Pipeline{Bench: bench, Retriever: retr, Answerer: ans}
		run, err := p.Run(w)
		if err != nil {
			return err
		}
		tbl.AddRow(name,
			report.Percent(run.HitRate()),
			report.Percent(run.Accuracy()),
			run.MeanRetrieval().Round(1e5).String(),
			fmt.Sprintf("%d", run.DBCalls()),
		)
	}
	fmt.Println(tbl.String())
	fmt.Println("shape to observe: hit rate grows with τ, retrieval latency shrinks, accuracy holds.")
	return nil
}
