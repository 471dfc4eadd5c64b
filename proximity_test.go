package proximity

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"proximity/internal/vec"
)

// TestPublicAPISurface exercises the facade end to end the way the
// package documentation advertises it.
func TestPublicAPISurface(t *testing.T) {
	const dim = 64
	th := NewThesaurus()
	th.Register("car", "automobile")
	enc := NewEmbedder(dim, 1, th)

	db, err := NewFlatIndex(dim, L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	passages := []string{
		"electric car battery range highway",
		"diesel truck cargo logistics freight",
		"bicycle commuting urban lanes helmet",
	}
	for _, p := range passages {
		if err := db.Add(enc.Embed(p)); err != nil {
			t.Fatal(err)
		}
	}

	cache, err := NewFlatCache(dim, Options{Capacity: 8, Tolerance: 1, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	retr, err := NewRetriever(cache, db, RetrieverOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}

	first, err := retr.Retrieve(enc.Embed("electric car battery range highway"))
	if err != nil {
		t.Fatal(err)
	}
	if first.Hit || first.Docs[0] != 0 {
		t.Fatalf("first retrieval = %+v, want miss returning doc 0", first)
	}
	// Synonym rephrasing should hit the cache.
	second, err := retr.Retrieve(enc.Embed("electric automobile battery range highway"))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Hit || second.Docs[0] != 0 {
		t.Fatalf("synonym retrieval = %+v, want cache hit for doc 0", second)
	}
	if got := cache.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("stats = %+v", got)
	}
}

// TestCosineRecipe checks the recipe the package documents for a cosine
// database: on unit-normalized embeddings, an L2 cache at τ = √(2·τ_cos)
// decides every lookup as a cosine Algorithm 1 cache at τ_cos does. The
// model scans its lines with vec.Cosine; on the model's misses both are
// filled, FIFO, from a cosine FlatIndex. A query whose cosine distance to
// some cached key lies within 1e-5 of τ_cos is left to float rounding
// and only counted.
func TestCosineRecipe(t *testing.T) {
	const (
		dim, centres, docsPerCentre = 64, 40, 5
		capacity, queries           = 64, 3000
		tauCos, margin              = 0.05, 1e-5
	)
	rng := vec.NewRand(7)
	cs := make([]Vector, centres)
	db, err := NewFlatIndex(dim, CosineDistance)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs {
		cs[i] = vec.RandomUnit(rng, dim)
		for j := 0; j < docsPerCentre; j++ {
			if err := db.Add(unit(vec.GaussianAround(rng, cs[i], 0.05))); err != nil {
				t.Fatal(err)
			}
		}
	}
	cache, err := NewFlatCache(dim, Options{Capacity: capacity, Tolerance: float32(math.Sqrt(2 * tauCos)), Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		key  Vector
		docs []int
	}
	var model []line // oldest first
	hits, near, differ := 0, 0, 0
	for i := 0; i < queries; i++ {
		q := unit(vec.GaussianAround(rng, cs[rng.IntN(centres)], float32(0.01+0.03*rng.Float64())))
		best, bestDist, close := -1, float32(0), false
		for j, l := range model {
			d := vec.Cosine(q, l.key)
			close = close || math.Abs(float64(d)-tauCos) <= margin
			if d <= tauCos && (best < 0 || d < bestDist) {
				best, bestDist = j, d
			}
		}
		docs, ok := cache.Get(q)
		same := ok == (best >= 0) && (!ok || slices.Equal(docs, model[best].docs))
		if close {
			near++
			if !same {
				differ++
			}
		} else if !same {
			t.Fatalf("query %d: L2 cache served %v, %v; cosine model line %d at %v", i, docs, ok, best, bestDist)
		}
		if best >= 0 {
			hits++
			continue
		}
		found, err := db.Search(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		ids := []int{found[0].ID, found[1].ID}
		cache.Put(q, ids)
		if model = append(model, line{vec.Clone(q), ids}); len(model) > capacity {
			model = model[1:]
		}
	}
	t.Logf("%d of %d queries hit at τ_cos %g (L2 τ %.4f); %d within %g of τ_cos, %d of them decided differently",
		hits, queries, tauCos, math.Sqrt(2*tauCos), near, margin, differ)
	if hits < queries/10 || hits > queries*9/10 {
		t.Fatalf("%d of %d queries hit: the stream does not exercise both outcomes", hits, queries)
	}
}

// TestSnapshotRestorePath drives the one restore path over every cache
// shape: SaveSnapshot, then LoadSnapshot into a fresh cache built with
// the same options, which must hold as many lines, answer the last 50
// keys identically and count the replay as its Puts. A missing file
// restores nothing, and a wrong dimension or a directory at the path
// (the per-shard layout of older builds) is refused.
func TestSnapshotRestorePath(t *testing.T) {
	const (
		dim  = 32
		n    = 150 // more than any capacity below: the caches evict
		last = 50
	)
	must := func(c Cache, err error) Cache {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if closer, ok := c.(interface{ Close() error }); ok {
			t.Cleanup(func() { closer.Close() })
		}
		return c
	}
	for _, tc := range []struct {
		name string
		make func() Cache
	}{
		{"flat", func() Cache {
			return must(NewFlatCache(dim, Options{Capacity: 100, Tolerance: 1, Policy: LRU}))
		}},
		{"lsh", func() Cache {
			return must(NewLSHCache(dim, LSHOptions{Bits: 4, BucketCapacity: 8, Tolerance: 1, Policy: LRU, Seed: 3}))
		}},
		{"sharded-flat", func() Cache {
			return must(NewShardedFlatCache(dim, 2, Options{Capacity: 100, Tolerance: 1, Policy: LRU}, 7))
		}},
		{"tiered", func() Cache {
			return must(NewTieredCache(dim, TieredOptions{
				HotCapacity: 20, WarmCapacity: 80, Tolerance: 1, Policy: LRU, Dir: t.TempDir(),
			}))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := vec.NewRand(11)
			keys := make([]Vector, n)
			orig := tc.make()
			for i := range keys {
				keys[i] = vec.Scale(vec.RandomGaussian(rng, dim), 4)
				orig.PutWithTolerance(keys[i], []int{i, -i}, 0.5+float32(rng.Float64()))
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "cache.snap")
			if err := SaveSnapshot(path, dim, orig); err != nil {
				t.Fatal(err)
			}

			restored := tc.make()
			got, err := LoadSnapshot(path, dim, restored)
			if err != nil {
				t.Fatal(err)
			}
			if got != orig.Len() || restored.Len() != orig.Len() {
				t.Fatalf("restored %d entries, Len %d; original Len %d", got, restored.Len(), orig.Len())
			}
			if puts := restored.Stats().Puts; puts != int64(got) {
				t.Errorf("restored Puts = %d, want the %d replayed", puts, got)
			}
			hits := 0
			for i := n - last; i < n; i++ {
				q := vec.Add(keys[i], vec.Scale(vec.RandomUnit(rng, dim), 0.3))
				want, wantOK := orig.Get(q)
				docs, ok := restored.Get(q)
				if ok != wantOK || !slices.Equal(docs, want) {
					t.Fatalf("key %d: restored Get = %v, %v; original %v, %v", i, docs, ok, want, wantOK)
				}
				if ok {
					hits++
				}
			}
			if hits < last*9/10 {
				t.Fatalf("only %d of the last %d keys hit: the comparison proves little", hits, last)
			}

			fresh := tc.make()
			if got, err := LoadSnapshot(filepath.Join(dir, "absent.snap"), dim, fresh); got != 0 || err != nil {
				t.Errorf("a missing snapshot restored %d entries, err %v; want 0, nil", got, err)
			}
			if _, err := LoadSnapshot(path, dim+1, fresh); err == nil || fresh.Len() != 0 {
				t.Errorf("a dim-%d snapshot loaded as dim %d (err %v, Len %d)", dim, dim+1, err, fresh.Len())
			}
			old := filepath.Join(dir, "shards")
			if err := os.Mkdir(old, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(old, "shard-000.snap"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSnapshot(old, dim, fresh); err == nil || !strings.Contains(err.Error(), old) {
				t.Errorf("loading the directory %s: err = %v, want one naming it", old, err)
			}
			if err := SaveSnapshot(old, dim, orig); err == nil {
				t.Errorf("saving over the directory %s succeeded", old)
			}
		})
	}
}

func TestPublicLSHCache(t *testing.T) {
	cache, err := NewLSHCache(32, LSHOptions{Bits: 6, Tolerance: 0.5, Policy: FIFO, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEmbedder(32, 2, nil)
	v := enc.Embed("alpha beta gamma")
	cache.Put(v, []int{1, 2})
	docs, ok := cache.Get(v)
	if !ok || len(docs) != 2 {
		t.Fatalf("Get = %v, %v", docs, ok)
	}
}

func TestMedicalThesaurus(t *testing.T) {
	th := MedicalThesaurus()
	if th.Canonical("therapy") != "treatment" {
		t.Error("built-in thesaurus should map therapy to treatment")
	}
}

// TestPublicShardingAndLoad exercises the serving-scale facade: a sharded
// cache behind a retriever, driven by the load generator in both traffic
// modes.
func TestPublicShardingAndLoad(t *testing.T) {
	const dim = 64
	enc := NewEmbedder(dim, 3, nil)
	db, err := NewFlatIndex(dim, L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	topics := []string{
		"electric car battery range highway",
		"diesel truck cargo logistics freight",
		"bicycle commuting urban lanes helmet",
		"train schedule regional commuter line",
	}
	for _, p := range topics {
		if err := db.Add(enc.Embed(p)); err != nil {
			t.Fatal(err)
		}
	}

	cache, err := NewShardedFlatCache(dim, 4, Options{
		Capacity: 16, Tolerance: 1, Policy: LRU,
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.Stats().Shards) != 4 {
		t.Fatalf("%d shards, want 4", len(cache.Stats().Shards))
	}
	retr, err := NewRetriever(cache, db, RetrieverOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewRetrieverTarget(retr)
	if err != nil {
		t.Fatal(err)
	}

	wl := Workload{Name: "api-test"}
	for r := 0; r < 3; r++ {
		for q, text := range topics {
			wl.Queries = append(wl.Queries, WorkloadQuery{Embedding: enc.Embed(text), Question: q})
		}
	}
	closed, err := RunLoad(target, wl, LoadOptions{Mode: ClosedLoop, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if closed.Queries != 12 || closed.Errors != 0 {
		t.Fatalf("closed loop report = %+v", closed)
	}
	if closed.Hits != 8 { // every repeat of the 4 topics hits
		t.Errorf("closed loop hits = %d, want 8", closed.Hits)
	}

	cache.Clear()
	// Workers pinned to 4 so each topic's queries stay on one worker
	// (i % 4): repeats always issue after their first occurrence's Put,
	// keeping the hit count deterministic on any host.
	open, err := RunLoad(target, wl, LoadOptions{Mode: OpenLoop, QPS: 50000, Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if open.Hits != 8 {
		t.Errorf("open loop hits = %d, want 8", open.Hits)
	}

	rep := cache.Report()
	if rep.Entries != cache.Len() || len(rep.Shards) != 4 {
		t.Errorf("pressure report = %+v", rep)
	}

	// The sharded LSH constructor is part of the facade too.
	lshCache, err := NewShardedLSHCache(dim, 2, LSHOptions{Bits: 4, Tolerance: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(lshCache.Stats().Shards) != 2 {
		t.Errorf("LSH: %d shards, want 2", len(lshCache.Stats().Shards))
	}
}

// TestPublicBatchPipeline exercises the miss-coalescing facade: an IVF
// index, a batch pipeline wired through RetrieverOptions.Searcher, and
// the stats the docs advertise.
func TestPublicBatchPipeline(t *testing.T) {
	const dim = 32
	enc := NewEmbedder(dim, 3, nil)
	var corpus []Vector
	for i := 0; i < 40; i++ {
		corpus = append(corpus, enc.Embed("passage number "+string(rune('a'+i%26))))
	}
	db, err := NewIVFIndex(corpus, L2Distance, IVFConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}

	pipe, err := NewBatchPipeline(db)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewFlatCache(dim, Options{Capacity: 8, Tolerance: 1, Policy: LRU})
	if err != nil {
		t.Fatal(err)
	}
	retr, err := NewRetriever(cache, db, RetrieverOptions{K: 2, Searcher: pipe})
	if err != nil {
		t.Fatal(err)
	}
	res, err := retr.Retrieve(enc.Embed("passage number a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || len(res.Docs) != 2 {
		t.Fatalf("first retrieval = %+v, want a 2-doc miss", res)
	}
	if st := pipe.Stats(); st.Searches != 1 || st.Coalesced != 0 || st.Errors != 0 {
		t.Errorf("pipeline stats = %+v, want 1 search, none coalesced or failed", st)
	}
}

// unit scales v in place to unit length, as a cosine caller does, and
// returns it.
func unit(v vec.Vector) vec.Vector { return vec.Scale(v, 1/vec.Norm(v)) }
