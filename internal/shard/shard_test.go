package shard

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"proximity/internal/core"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

const testDim = 32

func newFlatShards(t *testing.T, shards, capacity int) *ShardedCache {
	t.Helper()
	c, err := NewFlat(testDim, shards, core.Options{
		Capacity:  capacity,
		Tolerance: 1,
		Policy:    core.LRU,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	factory := func(int) (core.Cache, error) {
		return core.NewFlat(testDim, core.Options{Capacity: 4, Tolerance: 1})
	}
	cases := []struct {
		name string
		dim  int
		opts Options
	}{
		{"zero dim", 0, Options{New: factory}},
		{"nil factory", testDim, Options{}},
		{"negative shards", testDim, Options{Shards: -1, New: factory}},
	}
	for _, tc := range cases {
		if _, err := New(tc.dim, tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := New(testDim, Options{New: func(int) (core.Cache, error) {
		return nil, nil
	}}); err == nil {
		t.Error("nil sub-cache from factory should error")
	}
	if _, err := New(testDim, Options{New: func(int) (core.Cache, error) {
		return nil, fmt.Errorf("boom")
	}}); err == nil {
		t.Error("factory error should propagate")
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	c := newFlatShards(t, 4, 40)
	if got := len(c.slots); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	// Total capacity covers the requested 40 (split evenly).
	if got := c.Capacity(); got < 40 {
		t.Errorf("Capacity = %d, want >= 40", got)
	}
	for i := 0; i < len(c.slots); i++ {
		if c.Shard(i) == nil {
			t.Fatalf("Shard(%d) is nil", i)
		}
	}
	// Zero shards falls back to GOMAXPROCS.
	d, err := NewFlat(testDim, 0, core.Options{Capacity: 8, Tolerance: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.slots) < 1 {
		t.Errorf("default shard count = %d, want >= 1", len(d.slots))
	}
}

// TestPutGetRoundTrip checks the core contract: an inserted key is found
// again, because Put and Get route through the same partitioner, and so
// is a near-duplicate of it, because the partitioner is an LSH signature
// (the package's claim that approximate hits survive partitioning).
func TestPutGetRoundTrip(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		c, err := New(testDim, Options{
			Shards: 8,
			Seed:   7,
			New: func(int) (core.Cache, error) {
				return core.NewFlat(testDim, core.Options{Capacity: 16, Tolerance: 0.5})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := vec.NewRand(11)
		keys := make([]vec.Vector, 50)
		for i := range keys {
			keys[i] = vec.Scale(vec.RandomUnit(rng, testDim), 10)
			c.Put(keys[i], []int{i})
		}
		hits := 0
		for i, k := range keys {
			docs, ok := c.Get(k)
			if !ok {
				continue // may have been evicted by shard pressure
			}
			hits++
			if len(docs) != 1 || docs[0] != i {
				t.Errorf("key %d returned docs %v", i, docs)
			}
		}
		if hits == 0 {
			t.Error("no inserted key was found again")
		}
		st := c.Stats()
		if st.Puts != 50 {
			t.Errorf("Puts = %d, want 50", st.Puts)
		}
		if st.Lookups() != 50 {
			t.Errorf("Lookups = %d, want 50", st.Lookups())
		}
	})
	// One query per key at distance 0.3 (τ = 0.5) with ample capacity,
	// so one FLAT cache hits every query. A hit here needs the query to
	// route to its key's shard: 0.91–0.92 of them do at 8 shards, where
	// a router blind to geometry would manage about 1/8.
	t.Run("near-duplicate", func(t *testing.T) {
		const (
			dim, shards, n = 64, 8, 1000
			noise          = 0.3
		)
		for seed := uint64(1); seed <= 3; seed++ {
			c, err := NewFlat(dim, shards, core.Options{Capacity: 2 * n, Tolerance: 0.5}, seed)
			if err != nil {
				t.Fatal(err)
			}
			rng := vec.NewRand(seed)
			keys := make([]vec.Vector, n)
			for i := range keys {
				keys[i] = vec.Scale(vec.RandomUnit(rng, dim), 10)
				c.Put(keys[i], []int{i})
			}
			hits := 0
			for i, k := range keys {
				q := vec.Add(k, vec.Scale(vec.RandomUnit(rng, dim), noise))
				docs, ok := c.Get(q)
				if !ok {
					continue
				}
				hits++
				if len(docs) != 1 || docs[0] != i {
					t.Fatalf("seed %d: query %d returned docs %v", seed, i, docs)
				}
			}
			rate := float64(hits) / n
			t.Logf("seed %d: near-duplicate hit rate %.3f", seed, rate)
			if rate < 0.85 {
				t.Errorf("seed %d: near-duplicate hit rate %.3f, want >= 0.85", seed, rate)
			}
		}
	})
}

// TestRoutingDeterminism: a fixed construction seed fixes the shard
// assignment of every key.
func TestRoutingDeterminism(t *testing.T) {
	a := newFlatShards(t, 8, 64)
	b := newFlatShards(t, 8, 64)
	rng := vec.NewRand(3)
	for i := 0; i < 100; i++ {
		q := vec.RandomGaussian(rng, testDim)
		if sa, sb := a.ShardFor(q), b.ShardFor(q); sa != sb {
			t.Fatalf("key %d routed to %d and %d under the same seed", i, sa, sb)
		}
	}
}

// TestDropInRetriever runs the sharded cache through the full Algorithm 1
// path of core.CachedRetriever, mirroring the core retriever tests: a
// first retrieval misses and fills, a repeat of the same query hits and
// bypasses the database.
func TestDropInRetriever(t *testing.T) {
	rng := vec.NewRand(9)
	db, err := vectordb.NewFlatIndex(testDim, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	corpus := make([]vec.Vector, 40)
	for i := range corpus {
		corpus[i] = vec.Scale(vec.RandomUnit(rng, testDim), 10)
		if err := db.Add(corpus[i]); err != nil {
			t.Fatal(err)
		}
	}
	cache := newFlatShards(t, 4, 32)
	retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	q := vec.Scale(vec.RandomUnit(rng, testDim), 10)
	first, err := retr.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if first.Hit {
		t.Error("first retrieval should miss")
	}
	if len(first.Docs) != 3 {
		t.Fatalf("first retrieval returned %d docs, want 3", len(first.Docs))
	}
	second, err := retr.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Hit {
		t.Error("repeat retrieval should hit the sharded cache")
	}
	if fmt.Sprint(second.Docs) != fmt.Sprint(first.Docs) {
		t.Errorf("hit returned %v, miss returned %v", second.Docs, first.Docs)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit and 1 miss", st)
	}
}

// TestShardStatsAggregation: the cache-wide snapshot is the sum of the
// per-shard snapshots plus routing hash work.
func TestShardStatsAggregation(t *testing.T) {
	c := newFlatShards(t, 4, 64)
	rng := vec.NewRand(13)
	for i := 0; i < 30; i++ {
		q := vec.Scale(vec.RandomUnit(rng, testDim), 10)
		c.Put(q, []int{i})
		c.Get(q)
	}
	agg := c.Stats()
	var sum core.Stats
	for _, st := range agg.Shards {
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Puts += st.Puts
		sum.Evictions += st.Evictions
	}
	if agg.Hits != sum.Hits || agg.Misses != sum.Misses || agg.Puts != sum.Puts {
		t.Errorf("aggregate %+v does not match per-shard sum %+v", agg, sum)
	}
	if agg.HashOps <= 0 {
		t.Error("routing should charge hash operations")
	}
	if got := c.Len(); got != int(sum.Puts-sum.Evictions) {
		t.Errorf("Len = %d, want %d", got, sum.Puts-sum.Evictions)
	}
}

func TestClear(t *testing.T) {
	c := newFlatShards(t, 4, 64)
	rng := vec.NewRand(17)
	for i := 0; i < 20; i++ {
		c.Put(vec.RandomGaussian(rng, testDim), []int{i})
	}
	if c.Len() == 0 {
		t.Fatal("cache unexpectedly empty before Clear")
	}
	c.Clear()
	if got := c.Len(); got != 0 {
		t.Errorf("Len after Clear = %d, want 0", got)
	}
}

func TestNilQuery(t *testing.T) {
	c := newFlatShards(t, 2, 8)
	if _, ok := c.Get(nil); ok {
		t.Error("nil query should miss")
	}
	c.Put(nil, []int{1})
	c.PutWithTolerance(nil, []int{1}, 1)
	if c.Len() != 0 {
		t.Error("nil puts should be ignored")
	}
}

func TestPressureReport(t *testing.T) {
	c := newFlatShards(t, 4, 8) // 2 entries per shard: force evictions
	rng := vec.NewRand(19)
	for i := 0; i < 64; i++ {
		c.Put(vec.Scale(vec.RandomUnit(rng, testDim), 10), []int{i})
	}
	r := c.Report()
	if len(r.Shards) != 4 {
		t.Fatalf("report covers %d shards, want 4", len(r.Shards))
	}
	if r.Entries != c.Len() {
		t.Errorf("report entries %d != Len %d", r.Entries, c.Len())
	}
	if r.Capacity != c.Capacity() {
		t.Errorf("report capacity %d != Capacity %d", r.Capacity, c.Capacity())
	}
	if r.Evictions != c.Stats().Evictions {
		t.Errorf("report evictions %d != stats %d", r.Evictions, c.Stats().Evictions)
	}
	if r.Evictions == 0 {
		t.Error("64 puts into 8 slots should evict")
	}
	if r.Imbalance < 1 {
		t.Errorf("imbalance %v below 1 (max cannot be below mean)", r.Imbalance)
	}
	if r.MaxOccupancy < r.Occupancy {
		t.Errorf("max occupancy %v below mean %v", r.MaxOccupancy, r.Occupancy)
	}
	out := r.Render()
	for _, want := range []string{"Shard pressure", "evictions", "imbalance"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentStress hammers one ShardedCache from many goroutines.
// Run with -race: the test's assertion is the absence of data races plus
// counter conservation afterwards.
func TestConcurrentStress(t *testing.T) {
	t.Run("lsh", func(t *testing.T) {
		c, err := New(testDim, Options{
			Shards: 8,
			Seed:   23,
			New: func(int) (core.Cache, error) {
				return core.NewFlat(testDim, core.Options{
					Capacity: 32, Tolerance: 1, Policy: core.LRU,
				})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		const (
			goroutines = 16
			opsPerG    = 300
		)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := vec.NewRand(uint64(100 + g))
				for i := 0; i < opsPerG; i++ {
					q := vec.Scale(vec.RandomUnit(rng, testDim), 10)
					switch i % 4 {
					case 0:
						c.Put(q, []int{g, i})
					case 1:
						c.PutWithTolerance(q, []int{g, i}, 0.5)
					case 2:
						c.Get(q)
					default:
						c.Get(q)
						c.Report()
					}
				}
			}(g)
		}
		wg.Wait()
		st := c.Stats()
		wantPuts := int64(goroutines * opsPerG / 2)
		if st.Puts != wantPuts {
			t.Errorf("Puts = %d, want %d", st.Puts, wantPuts)
		}
		if got := int64(c.Len()); got != st.Puts-st.Evictions {
			t.Errorf("Len %d != Puts-Evictions %d", got, st.Puts-st.Evictions)
		}
		if c.Len() > c.Capacity() {
			t.Errorf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
		}
	})
}

// TestShardedLSH exercises the LSH-backed shard factory.
func TestShardedLSH(t *testing.T) {
	c, err := NewLSH(testDim, 4, core.LSHOptions{
		Bits: 4, Tolerance: 0.5, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(37)
	q := vec.Scale(vec.RandomUnit(rng, testDim), 10)
	c.Put(q, []int{1, 2})
	docs, ok := c.Get(q)
	if !ok || len(docs) != 2 {
		t.Fatalf("Get = %v, %v; want the cached docs", docs, ok)
	}
	if c.Capacity() != 4*(1<<4)*core.DefaultBucketCapacity {
		t.Errorf("Capacity = %d, want full per-shard bucket geometry", c.Capacity())
	}
}

// ShardFor returns the shard index a query routes to: deterministic for
// a fixed partitioner seed (Reseed re-draws it).
func (c *ShardedCache) ShardFor(q vec.Vector) int {
	return shardIndex(c.hasher.Load().Hash(q), len(c.slots))
}

// Shard returns the i-th sub-cache. A migration may retire the returned
// instance at any time; counters read directly from it miss the slot
// baseline.
func (c *ShardedCache) Shard(i int) core.Cache {
	s := &c.slots[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cache
}
