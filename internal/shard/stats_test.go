package shard

import (
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"proximity/internal/core"
	"proximity/internal/tier"
	"proximity/internal/vec"
)

// TestWrongLengthInput: a query or key one float short or one float long
// is treated like a nil one by every shape, bare and sharded — no panic,
// no hit, and neither Len nor Stats moves — including a tiered cache
// whose warm tier holds entries.
func TestWrongLengthInput(t *testing.T) {
	const dim = 16
	flat := core.Options{Capacity: 8, Tolerance: 1, Policy: core.LRU}
	lsh := core.LSHOptions{Bits: 3, BucketCapacity: 4, Tolerance: 1, Seed: 1}
	tiered := func() tier.Options {
		return tier.Options{HotCapacity: 2, WarmCapacity: 6, Tolerance: 1, Dir: t.TempDir()}
	}
	shapes := map[string]func() (core.Cache, error){
		"flat":           func() (core.Cache, error) { return core.NewFlat(dim, flat) },
		"lsh":            func() (core.Cache, error) { return core.NewLSH(dim, lsh) },
		"tiered":         func() (core.Cache, error) { return tier.New(dim, tiered()) },
		"sharded-flat":   func() (core.Cache, error) { return NewFlat(dim, 2, flat, 1) },
		"sharded-lsh":    func() (core.Cache, error) { return NewLSH(dim, 2, lsh) },
		"sharded-tiered": func() (core.Cache, error) { return NewTiered(dim, 2, tiered(), 1) },
	}
	for name, newCache := range shapes {
		t.Run(name, func(t *testing.T) {
			c, err := newCache()
			if err != nil {
				t.Fatal(err)
			}
			if closer, ok := c.(io.Closer); ok {
				t.Cleanup(func() { closer.Close() })
			}
			// Twelve keys overflow every hot tier into its warm tier.
			rng := vec.NewRand(5)
			var key vec.Vector
			for i := 0; i < 12; i++ {
				key = vec.RandomGaussian(rng, dim)
				c.Put(key, []int{i})
			}
			if name == "tiered" && c.Stats().Tier.WarmEntries == 0 {
				t.Fatal("the warm tier is empty; the lookups below would not reach it")
			}
			len0, st0 := c.Len(), c.Stats()
			for _, bad := range []vec.Vector{key[:dim-1], append(vec.Clone(key), 0)} {
				if docs, ok := c.Get(bad); ok {
					t.Errorf("Get of a %d-float query hit: %v", len(bad), docs)
				}
				if hot, ok := c.(core.TierCache); ok {
					if _, ok := hot.TierGet(bad); ok {
						t.Errorf("TierGet of a %d-float query hit", len(bad))
					}
				}
				c.Put(bad, []int{-1})
				c.PutWithTolerance(bad, []int{-1}, 1)
			}
			if got := c.Len(); got != len0 {
				t.Errorf("Len %d → %d", len0, got)
			}
			if st := c.Stats(); !reflect.DeepEqual(st, st0) {
				t.Errorf("Stats moved:\n%+v %+v\n→\n%+v %+v", st0, st0.Tier, st, st.Tier)
			}
		})
	}
}

// TestStatsSnapshotConsistent: one Stats() of a sharded tiered cache is
// one snapshot, so its hits and its tier block's hot and warm hits add
// up, and so do its Shards rows and its totals, even while other
// goroutines are hitting, missing and filling the cache — which two
// separate passes over the shards could not promise.
func TestStatsSnapshotConsistent(t *testing.T) {
	c := newTieredShards(t, 4, 16, 64)
	rng := vec.NewRand(9)
	keys := make([]vec.Vector, 96)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomGaussian(rng, testDim), 2)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := vec.NewRand(uint64(10 + g))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[rng.IntN(len(keys))]
				if _, ok := c.Get(k); !ok {
					c.Put(k, []int{i})
				}
			}
		}(g)
	}
	for i := 0; i < 2000; i++ {
		// Yield between snapshots, so that the writers run even when
		// this goroutine holds the only processor the host gives it.
		runtime.Gosched()
		st := c.Stats()
		if st.Tier == nil {
			t.Fatalf("snapshot %d: no Tier block; a sharded cache always fills it", i)
		}
		if st.Hits != st.Tier.HotHits+st.Tier.WarmHits {
			t.Fatalf("snapshot %d: Hits %d != HotHits %d + WarmHits %d", i, st.Hits, st.Tier.HotHits, st.Tier.WarmHits)
		}
		if len(st.Shards) != 4 {
			t.Fatalf("snapshot %d: %d Shards rows, want 4", i, len(st.Shards))
		}
		var rows core.ShardStats
		for _, row := range st.Shards {
			rows.Hits += row.Hits
			rows.Misses += row.Misses
			rows.Puts += row.Puts
			rows.Evictions += row.Evictions
		}
		if total := (core.ShardStats{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, Evictions: st.Evictions}); rows != total {
			t.Fatalf("snapshot %d: Shards rows sum to %+v, the totals are %+v", i, rows, total)
		}
	}
	if st := c.Stats(); st.Tier.HotHits == 0 || st.Tier.WarmHits == 0 {
		t.Errorf("traffic did not hit both tiers: %+v", st.Tier)
	}
}
