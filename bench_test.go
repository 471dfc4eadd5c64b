// Benchmarks regenerating every figure of the paper's evaluation (one
// testing.B per table/figure, named after it) plus the
// hot-path kernel microbenchmarks. Figure benches run the CI-sized
// configuration so `go test -bench=.` stays tractable; the full
// paper-shaped sweep is `go run ./cmd/proximity-bench`.
package proximity_test

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proximity/internal/batch"
	"proximity/internal/core"
	"proximity/internal/experiments"
	"proximity/internal/hnsw"
	"proximity/internal/server"
	"proximity/internal/shard"
	"proximity/internal/stats"
	"proximity/internal/tier"
	"proximity/internal/vamana"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

// benchSuite lazily builds one shared experiment suite so benchmarks
// reuse corpora and workloads.
func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		cfg := experiments.Quick()
		cfg.Seeds = 1
		suite, suiteErr = experiments.NewSuite(cfg)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func BenchmarkFig2QuerySkew(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2QuerySkew(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Projection(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig3EmbeddingClusters(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6FlatGridMMLU(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6FlatGrid("mmlu"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6FlatGridMedRAG(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6FlatGrid("medrag"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7ZipfPolicies(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig7ZipfPolicies(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8BucketSize(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig8BucketSize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Occupancy(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9Occupancy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10LookupScaling(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig10LookupScaling(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11LookupParams(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig11LookupParams(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12TripClick(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig12TripClick(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpCountAblation(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.OpCountAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionsAblation(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtensionsAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- hot-path kernels -------------------------------------------------

// BenchmarkVecKernels measures the distance kernels at the paper's
// dimensionality; the SIMD-equivalent unrolled loop is the cache's inner
// scan operation (Algorithm 1 line 2).
func BenchmarkVecKernels(b *testing.B) {
	rng := vec.NewRand(1)
	x := vec.RandomGaussian(rng, 768)
	y := vec.RandomGaussian(rng, 768)
	b.Run("L2Squared-768", func(b *testing.B) {
		var sink float32
		for i := 0; i < b.N; i++ {
			sink += vec.L2Squared(x, y)
		}
		_ = sink
	})
	b.Run("Dot-768", func(b *testing.B) {
		var sink float32
		for i := 0; i < b.N; i++ {
			sink += vec.Dot(x, y)
		}
		_ = sink
	})

	// The early-abandoning kernel over 64 keys under three bounds, next
	// to the unbounded kernel over the same keys: never abandons (the
	// price of the checks), abandons the farther half (sums of i.i.d.
	// terms concentrate, so late), and abandons everything at the first
	// check (a cache scan far from every key).
	ys := make([]vec.Vector, 64)
	d2 := make([]float32, len(ys))
	for i := range ys {
		ys[i] = vec.RandomGaussian(rng, 768)
		d2[i] = vec.L2Squared(x, ys[i])
	}
	slices.Sort(d2)
	b.Run("L2Squared-768/64keys", func(b *testing.B) {
		var sink float32
		for i := 0; i < b.N; i++ {
			sink += vec.L2Squared(x, ys[i%len(ys)])
		}
		_ = sink
	})
	for _, c := range []struct {
		name  string
		bound float32
	}{
		{"inf", float32(math.Inf(1))},
		{"median", d2[len(d2)/2]},
		{"tau2", 1},
	} {
		b.Run("L2SquaredBounded-768/64keys/bound="+c.name, func(b *testing.B) {
			var sink float32
			for i := 0; i < b.N; i++ {
				s, _ := vec.L2SquaredBounded(x, ys[i%len(ys)], c.bound)
				sink += s
			}
			_ = sink
		})
	}

	// The head test of a FLAT scan over 1 000 cached keys at τ = 1,
	// every key ruled out on its head: the per-head loop the caches ran
	// before, and one NextHead pass (SSE2 blocks of four on amd64).
	const rows = 1000
	heads := make([]float32, 0, rows*vec.HeadLen)
	bounds := make([]float32, rows)
	for i := range bounds {
		heads = append(heads, vec.RandomGaussian(rng, vec.HeadLen)...)
		bounds[i] = vec.SquaredBound(1)
	}
	b.Run("L2SquaredHead/1000", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			for r, bound := range bounds {
				if !(vec.L2SquaredHead(x, heads[r*vec.HeadLen:]) > bound) {
					sink++
				}
			}
		}
		_ = sink
	})
	b.Run("NextHead/1000", func(b *testing.B) {
		inf := float32(math.Inf(1))
		var sink int
		for i := 0; i < b.N; i++ {
			sink += vec.NextHead(x, heads, bounds, inf)
		}
		_ = sink
	})
}

// BenchmarkCacheGet measures a single lookup in the cache variants at a
// paper-scale occupancy (c=1000, d=768). The plain cases miss every key;
// flat-1000-hit asks for a σ-perturbed copy of a mid-scan key, so the
// scan runs under the tolerance until it meets the key and under that
// key's distance after. tiered-40+960-warm-hit asks the same of a FIFO
// tiered cache of the same 1 000 keys, where that key is warm: the hot
// tier misses, and the warm scan streams its heads and reads the record.
func BenchmarkCacheGet(b *testing.B) {
	const (
		dim = 768
		n   = 1000
	)
	rng := vec.NewRand(2)
	keys := make([]vec.Vector, n)
	r := vec.NewRand(3)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomUnit(r, dim), 10)
	}
	fill := func(c core.Cache) {
		for i, k := range keys {
			c.Put(k, []int{i})
		}
	}
	q := vec.Scale(vec.RandomUnit(rng, dim), 10)
	near := vec.GaussianAround(rng, keys[n/2], 0.02) // ≈ 0.55 away; τ = 1

	for _, c := range []struct {
		name string
		q    vec.Vector
		hit  bool
	}{{"flat-1000", q, false}, {"flat-1000-hit", near, true}} {
		b.Run(c.name, func(b *testing.B) {
			cache, err := core.NewFlat(dim, core.Options{Capacity: n, Tolerance: 1, Policy: core.LRU})
			if err != nil {
				b.Fatal(err)
			}
			fill(cache)
			if _, ok := cache.Get(c.q); ok != c.hit {
				b.Fatalf("hit = %v, want %v", ok, c.hit)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache.Get(c.q)
			}
		})
	}
	b.Run("tiered-40+960-warm-hit", func(b *testing.B) {
		cache, err := tier.New(dim, tier.Options{
			HotCapacity: 40, WarmCapacity: n - 40, Tolerance: 1, Policy: core.FIFO, Dir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer cache.Close()
		fill(cache)
		if _, ok := cache.Get(near); !ok || cache.TierStats().WarmHits != 1 {
			b.Fatalf("hit = %v with %d warm hits, want one warm hit", ok, cache.TierStats().WarmHits)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Get(near)
		}
	})
	b.Run("lsh-1000", func(b *testing.B) {
		cache, err := core.NewLSH(dim, core.LSHOptions{Bits: 8, Tolerance: 1, Policy: core.LRU, Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
		fill(cache)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Get(q)
		}
	})
}

// BenchmarkServerRoundTrip measures the HTTP rung of the request path:
// one server.Client.Retrieve hit per op, over a loopback connection to
// server.New's handler in front of a warmed FLAT cache of 1 000 keys
// (d = 768, τ = 1). Its allocations count both ends of the connection.
func BenchmarkServerRoundTrip(b *testing.B) {
	const (
		dim = 768
		n   = 1000
	)
	r := vec.NewRand(3)
	keys := make([]vec.Vector, n)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomUnit(r, dim), 10)
	}
	db, err := vectordb.NewFlatFromVectors(keys, vec.L2Distance)
	if err != nil {
		b.Fatal(err)
	}
	cache, err := core.NewFlat(dim, core.Options{Capacity: n, Tolerance: 1, Policy: core.LRU})
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range keys {
		cache.Put(k, []int{i})
	}
	retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{Retriever: retr})
	if err != nil {
		b.Fatal(err)
	}
	addr, stop, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	client := server.NewClient("http://" + addr)
	defer client.Close()
	near := vec.GaussianAround(vec.NewRand(2), keys[n/2], 0.02) // ≈ 0.55 away
	if resp, err := client.Retrieve(near); err != nil || !resp.Hit {
		b.Fatalf("hit = %v, err %v; want a hit", resp.Hit, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Retrieve(near); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedCache measures concurrent Get/Put throughput of the
// sharded cache at 1 shard (the single-mutex baseline) and N shards.
// b.RunParallel with SetParallelism(8) hammers each configuration from
// at least 8 goroutines per CPU; on multi-core hosts the N-shard rows
// should sustain materially higher ops/sec because distinct shards never
// contend on a lock.
func BenchmarkShardedCache(b *testing.B) {
	const (
		dim  = 768
		keys = 1024
	)
	rng := vec.NewRand(8)
	queries := make([]vec.Vector, keys)
	for i := range queries {
		queries[i] = vec.Scale(vec.RandomUnit(rng, dim), 10)
	}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			cache, err := shard.NewFlat(dim, shards, core.Options{
				Capacity:  keys,
				Tolerance: 1,
				Policy:    core.LRU,
			}, 9)
			if err != nil {
				b.Fatal(err)
			}
			for i, q := range queries {
				cache.Put(q, []int{i})
			}
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q := queries[i%keys]
					if i%16 == 0 {
						cache.Put(q, []int{i})
					} else {
						cache.Get(q)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkIndexedCache measures a single lookup in the graph-indexed
// cache against the flat scan at an occupancy past the crossover
// (n=8192, d=128), where the graph path engages. ReportAllocs documents
// the zero-alloc steady state of the pooled search scratch.
func BenchmarkIndexedCache(b *testing.B) {
	const (
		dim = 128
		n   = 8192
	)
	fill := func(c core.Cache) {
		r := vec.NewRand(21)
		for i := 0; i < n; i++ {
			c.Put(vec.Scale(vec.RandomGaussian(r, dim), 2), []int{i})
		}
	}
	// Query within τ of a cached key: both variants take the full
	// hit path (scan or descend, re-rank, admit).
	rng := vec.NewRand(21)
	q := vec.Clone(vec.Scale(vec.RandomGaussian(rng, dim), 2))
	q[0] += 0.1

	b.Run("flat-8192", func(b *testing.B) {
		cache, err := core.NewFlat(dim, core.Options{Capacity: n, Tolerance: 0.5, Policy: core.LRU})
		if err != nil {
			b.Fatal(err)
		}
		fill(cache)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Get(q)
		}
	})
	b.Run("indexed-8192", func(b *testing.B) {
		cache, err := core.NewIndexed(dim, core.IndexedOptions{
			Capacity: n, Tolerance: 0.5, Policy: core.LRU, Seed: 22,
		})
		if err != nil {
			b.Fatal(err)
		}
		fill(cache)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Get(q)
		}
	})
}

var (
	missPathOnce sync.Once
	missPathDBs  []vectordb.DB
	missPathErr  error
)

// BenchmarkBatchedRetriever measures the miss path with and without the
// singleflight coalescer, over an exact flat index and an IVF index at 2
// and 8 closed-loop clients. The cache is nil, so every request misses
// and searches, and 1 request in 10 repeats the one before it: the
// duplicate overlaps its original in flight only as often as two
// clients' requests overlap, which is the race the coalescer collapses.
// Each client takes the next request of the shared stream when its last
// one returns. Reports the request p50 (p50_us) and completed requests
// per second (qps). In a closed loop the mean latency is clients / qps,
// so with more clients than CPUs a p50 far from it shows how unevenly
// the scheduler served the clients, not a cheaper request. The corpus
// and both indexes are built once per process (the IVF k-means takes
// about half a minute) and shared by every sub-benchmark.
func BenchmarkBatchedRetriever(b *testing.B) {
	const (
		dim    = 768
		n      = 20000
		k      = 10
		stream = 4096
	)
	missPathOnce.Do(func() {
		rng := vec.NewRand(12)
		corpus := make([]vec.Vector, n)
		for i := range corpus {
			corpus[i] = vec.RandomGaussian(rng, dim)
		}
		flat, err := vectordb.NewFlatFromVectors(corpus, vec.L2Distance)
		if err != nil {
			missPathErr = err
			return
		}
		ivf, err := vectordb.BuildIVF(corpus, vec.L2Distance, vectordb.IVFConfig{Seed: 13})
		if err != nil {
			missPathErr = err
			return
		}
		missPathDBs = []vectordb.DB{flat, ivf}
	})
	if missPathErr != nil {
		b.Fatal(missPathErr)
	}
	rng := vec.NewRand(14)
	queries := make([]vec.Vector, stream)
	for i := range queries {
		if i > 0 && rng.IntN(10) == 0 {
			queries[i] = queries[i-1]
		} else {
			queries[i] = vec.RandomGaussian(rng, dim)
		}
	}

	run := func(b *testing.B, db vectordb.DB, clients int, searcher core.Searcher) {
		retr, err := core.NewCachedRetriever(nil, db, core.RetrieverOptions{K: k, Searcher: searcher})
		if err != nil {
			b.Fatal(err)
		}
		lat := make([]float64, b.N)
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= b.N {
						return
					}
					t0 := time.Now()
					if _, err := retr.Retrieve(queries[i%stream]); err != nil {
						b.Error(err)
						return
					}
					lat[i] = float64(time.Since(t0)) / 1e3
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		b.StopTimer()
		p50, err := stats.Percentile(lat, 50)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p50, "p50_us")
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
	}
	for di, name := range []string{"flat", "ivf"} {
		db := missPathDBs[di]
		for _, clients := range []int{2, 8} {
			b.Run(fmt.Sprintf("%s/clients-%d/direct", name, clients), func(b *testing.B) {
				run(b, db, clients, nil)
			})
			b.Run(fmt.Sprintf("%s/clients-%d/coalesced", name, clients), func(b *testing.B) {
				pipe, err := batch.New(db, batch.Options{})
				if err != nil {
					b.Fatal(err)
				}
				run(b, db, clients, pipe)
			})
		}
	}
}

// BenchmarkIndexSearch compares the three database substrates on the same
// random corpus (exact flat scan vs HNSW vs Vamana graph search).
func BenchmarkIndexSearch(b *testing.B) {
	const (
		dim = 128
		n   = 5000
		k   = 10
	)
	rng := vec.NewRand(5)
	vectors := make([]vec.Vector, n)
	for i := range vectors {
		vectors[i] = vec.RandomGaussian(rng, dim)
	}
	q := vec.RandomGaussian(rng, dim)

	b.Run("flat", func(b *testing.B) {
		ix, err := vectordb.NewFlatFromVectors(vectors, vec.L2Distance)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Search(q, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Gaussian vectors have no neighbourhood for the flat scan's seeding
	// pass to find; the repo benchmark's geometry (bench/gen.go) does.
	// Here at reduced size: N(0, I) centres, documents at σ 0.11 and
	// queries at σ 0.03 around them, dim 768, and its k, which is below
	// the documents per centre. The queries' centres are spread over
	// the corpus: a scan that finds its bound only on reaching the
	// query's neighbourhood would look fast on early ones.
	b.Run("flat-clustered", func(b *testing.B) {
		const (
			dim       = 768
			centres   = 512
			perCentre = 8
			k         = 4
			queries   = 64
		)
		rng := vec.NewRand(8)
		corpus := make([]vec.Vector, 0, centres*perCentre)
		qs := make([]vec.Vector, 0, queries)
		for c := 0; c < centres; c++ {
			centre := vec.RandomGaussian(rng, dim)
			for i := 0; i < perCentre; i++ {
				corpus = append(corpus, vec.GaussianAround(rng, centre, 0.11))
			}
			if c%(centres/queries) == 0 {
				qs = append(qs, vec.GaussianAround(rng, centre, 0.03))
			}
		}
		ix, err := vectordb.NewFlatFromVectors(corpus, vec.L2Distance)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Search(qs[i%len(qs)], k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hnsw", func(b *testing.B) {
		ix, err := hnsw.New(dim, vec.L2Distance, hnsw.Config{Seed: 6})
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.Add(vectors...); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Search(q, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("vamana", func(b *testing.B) {
		ix, err := vamana.Build(vectors, vec.L2Distance, vamana.Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Search(q, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}
