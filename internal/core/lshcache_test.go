package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"proximity/internal/vec"
)

func mustLSH(t *testing.T, dim int, opts LSHOptions) *LSHCache {
	t.Helper()
	c, err := NewLSH(dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewLSHValidation(t *testing.T) {
	tests := []struct {
		name string
		dim  int
		opts LSHOptions
	}{
		{name: "zero bits", dim: 4, opts: LSHOptions{Bits: 0}},
		{name: "too many bits", dim: 4, opts: LSHOptions{Bits: 40}},
		{name: "zero dim", dim: 0, opts: LSHOptions{Bits: 4}},
		{name: "negative bucket capacity", dim: 4, opts: LSHOptions{Bits: 4, BucketCapacity: -1}},
		{name: "negative tolerance", dim: 4, opts: LSHOptions{Bits: 4, Tolerance: -1}},
		{name: "NaN tolerance", dim: 4, opts: LSHOptions{Bits: 4, Tolerance: float32(math.NaN())}},
		{name: "bad policy", dim: 4, opts: LSHOptions{Bits: 4, Policy: Policy(9)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewLSH(tt.dim, tt.opts); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestLSHDefaults(t *testing.T) {
	c := mustLSH(t, 8, LSHOptions{Bits: 6, Tolerance: 1})
	if c.BucketCapacity() != DefaultBucketCapacity {
		t.Errorf("default bucket capacity = %d, want %d", c.BucketCapacity(), DefaultBucketCapacity)
	}
	if c.Bits() != 6 {
		t.Errorf("Bits = %d", c.Bits())
	}
	if c.Capacity() != (1<<6)*DefaultBucketCapacity {
		t.Errorf("Capacity = %d", c.Capacity())
	}
	if c.Policy() != FIFO || c.Tolerance() != 1 {
		t.Error("defaults wrong")
	}
}

func TestLSHBasicHitMiss(t *testing.T) {
	c := mustLSH(t, 16, LSHOptions{Bits: 4, Tolerance: 1, Seed: 1})
	rng := vec.NewRand(2)
	base := vec.Scale(vec.RandomUnit(rng, 16), 10)
	c.Put(base, []int{42})
	near := vec.GaussianAround(rng, base, 0.01)
	docs, ok := c.Get(near)
	if !ok || docs[0] != 42 {
		t.Errorf("near query should hit: %v %v", docs, ok)
	}
	far := vec.Scale(vec.RandomUnit(rng, 16), 10)
	if _, ok := c.Get(far); ok {
		t.Error("far query should miss")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HashOps != 3*4 { // three operations, 4 hyperplanes each
		t.Errorf("HashOps = %d, want 12", s.HashOps)
	}
}

func TestLSHEmptyBucketIsMiss(t *testing.T) {
	// A miss on an unallocated bucket must still be counted (§3.2: empty
	// buckets mean false positives cannot occur).
	c := mustLSH(t, 8, LSHOptions{Bits: 8, Tolerance: 100, Seed: 3})
	if _, ok := c.Get(vec.RandomGaussian(vec.NewRand(1), 8)); ok {
		t.Error("lookup into empty cache should miss")
	}
	if got := c.Stats().Misses; got != 1 {
		t.Errorf("Misses = %d, want 1", got)
	}
	if c.BucketsUsed() != 0 {
		t.Error("Get must not allocate buckets")
	}
}

func TestLSHLazyBucketAllocation(t *testing.T) {
	c := mustLSH(t, 16, LSHOptions{Bits: 10, Tolerance: 1, Seed: 4})
	rng := vec.NewRand(5)
	// Insert 50 queries clustered around one direction: they should
	// collapse into very few buckets.
	base := vec.Scale(vec.RandomUnit(rng, 16), 10)
	for i := 0; i < 50; i++ {
		c.Put(vec.GaussianAround(rng, base, 0.05), []int{i})
	}
	if used := c.BucketsUsed(); used > 8 {
		t.Errorf("clustered inserts used %d buckets, expected few", used)
	}
	if c.Len() == 0 || c.Len() > 50 {
		t.Errorf("Len = %d", c.Len())
	}
	if ro := c.RelativeOccupancy(); ro <= 0 || ro > 1 {
		t.Errorf("RelativeOccupancy = %v", ro)
	}
}

func TestLSHPerBucketEviction(t *testing.T) {
	c := mustLSH(t, 8, LSHOptions{Bits: 2, BucketCapacity: 2, Tolerance: 0.01, Seed: 6})
	rng := vec.NewRand(7)
	// Fill far beyond the total capacity; Len must never exceed 2^2·2.
	for i := 0; i < 100; i++ {
		c.Put(vec.RandomGaussian(rng, 8), []int{i})
	}
	if c.Len() > c.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	if got := c.Stats().Evictions; got == 0 {
		t.Error("expected evictions after overfilling")
	}
}

func TestLSHNilQuery(t *testing.T) {
	c := mustLSH(t, 8, LSHOptions{Bits: 4, Tolerance: 1})
	if _, ok := c.Get(nil); ok {
		t.Error("nil Get should miss")
	}
	c.Put(nil, []int{1})
	if c.Len() != 0 {
		t.Error("nil Put should be ignored")
	}
}

func TestLSHClear(t *testing.T) {
	c := mustLSH(t, 8, LSHOptions{Bits: 4, Tolerance: 1, Seed: 8})
	rng := vec.NewRand(9)
	for i := 0; i < 10; i++ {
		c.Put(vec.RandomGaussian(rng, 8), []int{i})
	}
	c.Clear()
	if c.Len() != 0 || c.BucketsUsed() != 0 {
		t.Error("Clear should drop all buckets")
	}
	c.Put(vec.RandomGaussian(rng, 8), []int{1})
	if c.Len() != 1 {
		t.Error("cache unusable after Clear")
	}
}

func TestLSHSameSeedBucketsIdentically(t *testing.T) {
	mk := func() *LSHCache { return mustLSH(t, 16, LSHOptions{Bits: 8, Tolerance: 0.5, Seed: 42}) }
	a, b := mk(), mk()
	rng := vec.NewRand(10)
	for i := 0; i < 40; i++ {
		v := vec.RandomGaussian(rng, 16)
		a.Put(v, []int{i})
		b.Put(v, []int{i})
	}
	if a.BucketsUsed() != b.BucketsUsed() || a.Len() != b.Len() {
		t.Error("same seed must bucket identically")
	}
}

// Property: an LSH hit implies a flat cache over the same inserts would
// also hit (bucketing only filters candidates, never invents them).
func TestLSHHitImpliesFlatHit(t *testing.T) {
	f := func(seed uint64) bool {
		r := vec.NewRand(seed)
		tol := float32(r.Float64() * 3)
		lshCache, err := NewLSH(4, LSHOptions{Bits: 4, BucketCapacity: 64, Tolerance: tol, Seed: seed})
		if err != nil {
			return false
		}
		flat, err := NewFlat(4, Options{Capacity: 1024, Tolerance: tol})
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			v := vec.RandomGaussian(r, 4)
			lshCache.Put(v, []int{i})
			flat.Put(v, []int{i})
		}
		for i := 0; i < 40; i++ {
			q := vec.RandomGaussian(r, 4)
			if _, lshHit := lshCache.Get(q); lshHit {
				if _, flatHit := flat.Get(q); !flatHit {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: total entries never exceed 2^L·b and per-bucket occupancy
// never exceeds b.
func TestLSHCapacityInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := vec.NewRand(seed)
		bits := 2 + int(r.Uint64()%4)
		bcap := 1 + int(r.Uint64()%8)
		c, err := NewLSH(3, LSHOptions{Bits: bits, BucketCapacity: bcap, Tolerance: 0.1, Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			c.Put(vec.RandomGaussian(r, 3), []int{i})
			if c.Len() > c.Capacity() {
				return false
			}
		}
		return c.BucketsUsed() <= 1<<bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLSHConcurrentAccess(t *testing.T) {
	c := mustLSH(t, 8, LSHOptions{Bits: 6, BucketCapacity: 8, Tolerance: 0.5, Seed: 11, Policy: LRU})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := vec.NewRand(uint64(100 + g))
			for i := 0; i < 400; i++ {
				v := vec.RandomGaussian(r, 8)
				if i%2 == 0 {
					c.Put(v, []int{i})
				} else {
					c.Get(v)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Error("capacity invariant violated under concurrency")
	}
	s := c.Stats()
	if s.Puts == 0 || s.Lookups() == 0 {
		t.Error("counters missing operations")
	}
}

// TestLSHScansWinningBucketOnce pins the scan count of a lookup: with
// one allocated bucket among the probed signatures — always, at a single
// probe — the counted lookup is the only scan, hit or miss, and the
// bucket books the outcome; with several, each is ranked once and the
// winner scanned again for the counted lookup, as before.
func TestLSHScansWinningBucketOnce(t *testing.T) {
	const (
		dim    = 16
		copies = 7
	)
	rng := vec.NewRand(5)
	base := vec.Scale(vec.RandomUnit(rng, dim), 10)
	// Same direction, so the same signature, but 10 away: a miss inside
	// base's own bucket.
	far := vec.Scale(vec.Clone(base), 2)
	distComps := func(c *LSHCache, lookup func()) int64 {
		before := c.Stats().DistComps
		lookup()
		return c.Stats().DistComps - before
	}

	for _, probes := range []int{1, 3} {
		c := mustLSH(t, dim, LSHOptions{Bits: 4, Tolerance: 1, Seed: 1, Probes: probes})
		for i := 0; i < copies; i++ {
			c.Put(base, []int{i})
		}
		if c.BucketsUsed() != 1 {
			t.Fatalf("probes %d: copies of one key fill %d buckets, want 1", probes, c.BucketsUsed())
		}
		for _, tc := range []struct {
			name string
			q    vec.Vector
			hit  bool
		}{{"hit", base, true}, {"miss", far, false}} {
			if n := distComps(c, func() {
				if _, ok := c.Get(tc.q); ok != tc.hit {
					t.Errorf("probes %d: Get %s = %v", probes, tc.name, ok)
				}
			}); n != copies {
				t.Errorf("probes %d: Get %s cost %d distance computations, want %d", probes, tc.name, n, copies)
			}
			if n := distComps(c, func() {
				if _, ok := c.TierGet(tc.q); ok != tc.hit {
					t.Errorf("probes %d: TierGet %s = %v", probes, tc.name, ok)
				}
			}); n != copies {
				t.Errorf("probes %d: TierGet %s cost %d distance computations, want %d", probes, tc.name, n, copies)
			}
		}
		// TierGet counts nothing until committed; each Get counted once.
		if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
			t.Errorf("probes %d: stats %+v, want one hit and one miss", probes, s)
		}
	}

	// Two allocated buckets in the probe sequence: both ranked, then the
	// counted lookup on the winner.
	c := mustLSH(t, dim, LSHOptions{Bits: 4, Tolerance: 1, Seed: 1, Probes: 5})
	for i := 0; i < copies; i++ {
		c.Put(base, []int{i})
	}
	neighbours := c.hasher.ProbeSequence(base)[1:c.probes]
	for c.BucketsUsed() < 2 {
		k := vec.Scale(vec.RandomUnit(rng, dim), 10)
		sig := c.hasher.Hash(k)
		for _, n := range neighbours {
			if sig == n {
				c.Put(k, []int{-1})
				break
			}
		}
	}
	if n := distComps(c, func() { c.Get(base) }); n != copies+1+copies {
		t.Errorf("two candidates: hit cost %d distance computations, want %d", n, copies+1+copies)
	}
	if n := distComps(c, func() { c.Get(far) }); n != copies+1 {
		t.Errorf("two candidates: miss cost %d distance computations, want %d", n, copies+1)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("two candidates: stats %+v, want one hit and one miss", s)
	}
}
