package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"proximity/internal/core"
	"proximity/internal/dataset"
	"proximity/internal/hnsw"
	"proximity/internal/llm"
	"proximity/internal/metrics"
	"proximity/internal/rag"
	"proximity/internal/vamana"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
	"proximity/internal/workload"
)

// Suite owns the benchmarks, indexes, and workloads shared across
// experiments, building each lazily exactly once. A Suite is safe for
// concurrent use by the grid runner.
type Suite struct {
	cfg Config

	mu         sync.Mutex
	mmlu       *dataset.Benchmark
	mmluDB     vectordb.DB
	medrag     *dataset.Benchmark // full question set
	medragSub  *dataset.Benchmark // uniform-workload subset
	medragDB   vectordb.DB
	trip       *dataset.TripClickLog
	tripDB     *vamana.Index
	uniformWls map[string]workload.Workload // key: bench+seed
	zipfWls    map[uint64]workload.Workload
}

// NewSuite validates the config and returns an empty suite.
func NewSuite(cfg Config) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Suite{
		cfg:        cfg,
		uniformWls: make(map[string]workload.Workload),
		zipfWls:    make(map[uint64]workload.Workload),
	}, nil
}

// MMLU returns the MMLU benchmark and its HNSW index (the paper serves
// wiki_dpr with FAISS-HNSW, §4.2.1).
func (s *Suite) MMLU() (*dataset.Benchmark, vectordb.DB, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mmlu != nil {
		return s.mmlu, s.mmluDB, nil
	}
	bench, err := dataset.NewMMLU(dataset.MMLUConfig{
		Questions:    s.cfg.MMLUQuestions,
		Topics:       s.cfg.MMLUTopics,
		DocsPerTopic: s.cfg.MMLUDocsPerTopic,
		Dim:          s.cfg.Dim,
		Seed:         1,
	})
	if err != nil {
		//proximity:allow lockdiscipline cold error path; the lazy-init builder holds the lock for the whole build by design
		return nil, nil, fmt.Errorf("experiments: mmlu benchmark: %w", err)
	}
	ix, err := hnsw.New(s.cfg.Dim, vec.L2Distance, 2)
	if err != nil {
		//proximity:allow lockdiscipline cold error path; the lazy-init builder holds the lock for the whole build by design
		return nil, nil, fmt.Errorf("experiments: mmlu index: %w", err)
	}
	if err := ix.Add(bench.Corpus.Embeddings...); err != nil {
		//proximity:allow lockdiscipline cold error path; the lazy-init builder holds the lock for the whole build by design
		return nil, nil, fmt.Errorf("experiments: mmlu index build: %w", err)
	}
	s.mmlu, s.mmluDB = bench, ix
	return bench, ix, nil
}

// MedRAG returns the MedRAG benchmark (full and uniform-subset views) and
// its exact flat index (the paper serves PubMed with FAISS-Flat, §4.2.1).
func (s *Suite) MedRAG() (full, subset *dataset.Benchmark, db vectordb.DB, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.medrag != nil {
		return s.medrag, s.medragSub, s.medragDB, nil
	}
	bench, err := dataset.NewMedRAG(dataset.MedRAGConfig{
		Questions:    s.cfg.MedRAGQuestions,
		Topics:       s.cfg.MedRAGTopics,
		DocsPerTopic: s.cfg.MedRAGDocsPerTopic,
		Dim:          s.cfg.Dim,
		Seed:         3,
	})
	if err != nil {
		//proximity:allow lockdiscipline cold error path; the lazy-init builder holds the lock for the whole build by design
		return nil, nil, nil, fmt.Errorf("experiments: medrag benchmark: %w", err)
	}
	flat, err := vectordb.NewFlatFromVectors(bench.Corpus.Embeddings, vec.L2Distance)
	if err != nil {
		//proximity:allow lockdiscipline cold error path; the lazy-init builder holds the lock for the whole build by design
		return nil, nil, nil, fmt.Errorf("experiments: medrag index: %w", err)
	}
	s.medrag = bench
	s.medragSub = bench.Subset(s.cfg.MedRAGSubset, 4)
	s.medragDB = flat
	return s.medrag, s.medragSub, s.medragDB, nil
}

// TripClick returns the synthetic log and its Vamana (DiskANN-sim) index.
func (s *Suite) TripClick() (*dataset.TripClickLog, *vamana.Index, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.trip != nil {
		return s.trip, s.tripDB, nil
	}
	log, err := dataset.NewTripClick(dataset.TripClickConfig{
		UniqueQueries: s.cfg.TripClickUnique,
		TotalQueries:  s.cfg.TripClickTotal,
		Topics:        s.cfg.TripClickTopics,
		DocsPerTopic:  s.cfg.TripClickDocsPerTopic,
		Dim:           s.cfg.Dim,
		Seed:          5,
	})
	if err != nil {
		//proximity:allow lockdiscipline cold error path; the lazy-init builder holds the lock for the whole build by design
		return nil, nil, fmt.Errorf("experiments: tripclick log: %w", err)
	}
	ix, err := vamana.Build(log.Bench.Corpus.Embeddings, vec.L2Distance, 6)
	if err != nil {
		//proximity:allow lockdiscipline cold error path; the lazy-init builder holds the lock for the whole build by design
		return nil, nil, fmt.Errorf("experiments: tripclick index: %w", err)
	}
	s.trip, s.tripDB = log, ix
	return log, ix, nil
}

// uniformWorkload returns (building once) the shuffled uniform-variant
// workload for a benchmark and seed.
func (s *Suite) uniformWorkload(bench *dataset.Benchmark, seed uint64) (workload.Workload, error) {
	key := fmt.Sprintf("%s-%d", bench.Name, seed)
	s.mu.Lock()
	w, ok := s.uniformWls[key]
	s.mu.Unlock()
	if ok {
		return w, nil
	}
	w, err := workload.UniformVariants(bench, s.cfg.Variants, seed)
	if err != nil {
		return workload.Workload{}, err
	}
	s.mu.Lock()
	s.uniformWls[key] = w
	s.mu.Unlock()
	return w, nil
}

// zipfWorkload returns (building once) the MedRAG-Zipf workload for a
// seed, drawn over the full 500-question set as in the paper.
func (s *Suite) zipfWorkload(seed uint64) (workload.Workload, error) {
	s.mu.Lock()
	w, ok := s.zipfWls[seed]
	s.mu.Unlock()
	if ok {
		return w, nil
	}
	full, _, _, err := s.MedRAG()
	if err != nil {
		return workload.Workload{}, err
	}
	w, err = workload.ZipfVariants(full, s.cfg.ZipfTotal, s.cfg.ZipfExponent, seed)
	if err != nil {
		return workload.Workload{}, err
	}
	s.mu.Lock()
	s.zipfWls[seed] = w
	s.mu.Unlock()
	return w, nil
}

// CacheSpec selects a cache variant for one experiment cell.
type CacheSpec struct {
	// Kind is "none", "flat", or "lsh".
	Kind string
	// Capacity is the FLAT capacity c.
	Capacity int
	// Tolerance is τ.
	Tolerance float32
	// Policy is the eviction policy (default FIFO).
	Policy core.Policy
	// Bits is the LSH signature width L.
	Bits int
	// BucketCapacity is the LSH per-bucket size b (default 20).
	BucketCapacity int
}

// newCache materializes the spec; Kind "none" yields nil (the no-cache
// baseline).
func (s *Suite) newCache(spec CacheSpec, seed uint64) (core.Cache, error) {
	switch spec.Kind {
	case "none", "":
		return nil, nil
	case "flat":
		return core.NewFlat(s.cfg.Dim, core.Options{
			Capacity:  spec.Capacity,
			Tolerance: spec.Tolerance,
			Policy:    spec.Policy,
		})
	case "lsh":
		return core.NewLSH(s.cfg.Dim, core.LSHOptions{
			Bits:           spec.Bits,
			BucketCapacity: spec.BucketCapacity,
			Tolerance:      spec.Tolerance,
			Policy:         spec.Policy,
			Seed:           seed,
		})
	default:
		return nil, fmt.Errorf("experiments: unknown cache kind %q", spec.Kind)
	}
}

// runSpec describes one pipeline execution.
type runSpec struct {
	bench            *dataset.Benchmark
	db               vectordb.DB
	latency          vectordb.LatencyModel
	w                workload.Workload
	cache            core.Cache
	k                int
	rerank           int
	source           vectordb.VectorSource
	answerSeed       uint64
	measureRecall    bool
	answer           bool
	dynamicTolerance float64
}

// run executes one pipeline configuration.
func (s *Suite) run(spec runSpec) (*metrics.Run, error) {
	retr, err := core.NewCachedRetriever(spec.cache, spec.db, core.RetrieverOptions{
		K:                spec.k,
		Rerank:           spec.rerank,
		Source:           spec.source,
		Latency:          spec.latency,
		DynamicTolerance: spec.dynamicTolerance,
	})
	if err != nil {
		return nil, err
	}
	p := &rag.Pipeline{
		Bench:         spec.bench,
		Retriever:     retr,
		MeasureRecall: spec.measureRecall,
	}
	if spec.answer {
		ans, err := llm.NewAnswerer(spec.bench.Profile, spec.answerSeed)
		if err != nil {
			return nil, err
		}
		p.Answerer = ans
	}
	return p.Run(spec.w)
}

// parallelFor runs fn(0..n-1) on up to `workers` goroutines, returning
// the first error.
func (s *Suite) parallelFor(n int, fn func(i int) error) error {
	workers := s.cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		fail error
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if fail != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if fail == nil {
						fail = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return fail
}

// seeds returns the per-run seeds derived from the base seed.
func (s *Suite) seeds() []uint64 {
	out := make([]uint64, s.cfg.Seeds)
	for i := range out {
		out[i] = 1000 + uint64(i)*7919
	}
	return out
}
