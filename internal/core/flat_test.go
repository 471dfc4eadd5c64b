package core

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"proximity/internal/vec"
)

func mustFlat(t testing.TB, dim int, opts Options) *FlatCache {
	t.Helper()
	c, err := NewFlat(dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewFlatValidation(t *testing.T) {
	tests := []struct {
		name string
		dim  int
		opts Options
	}{
		{name: "zero capacity", dim: 4, opts: Options{Capacity: 0}},
		{name: "negative capacity", dim: 4, opts: Options{Capacity: -1}},
		{name: "negative tolerance", dim: 4, opts: Options{Capacity: 1, Tolerance: -0.1}},
		{name: "NaN tolerance", dim: 4, opts: Options{Capacity: 1, Tolerance: float32(math.NaN())}},
		{name: "zero dim", dim: 0, opts: Options{Capacity: 1}},
		{name: "bad policy", dim: 4, opts: Options{Capacity: 1, Policy: Policy(9)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewFlat(tt.dim, tt.opts); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestFlatDefaults(t *testing.T) {
	c := mustFlat(t, 2, Options{Capacity: 3})
	if c.Policy() != FIFO {
		t.Errorf("default policy = %v, want fifo", c.Policy())
	}
	if c.Tolerance() != 0 {
		t.Errorf("default tolerance = %v", c.Tolerance())
	}
	if c.Capacity() != 3 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
}

func TestFlatMissOnEmpty(t *testing.T) {
	c := mustFlat(t, 2, Options{Capacity: 2, Tolerance: 100})
	if _, ok := c.Get(vec.Vector{0, 0}); ok {
		t.Error("empty cache must miss")
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFlatExactMatchingAtZeroTolerance(t *testing.T) {
	// τ = 0 is equivalent to exact matching (§3.3.3).
	c := mustFlat(t, 2, Options{Capacity: 4, Tolerance: 0})
	c.Put(vec.Vector{1, 1}, []int{7})
	if docs, ok := c.Get(vec.Vector{1, 1}); !ok || docs[0] != 7 {
		t.Error("exact repeat should hit at τ=0")
	}
	if _, ok := c.Get(vec.Vector{1, 1.0001}); ok {
		t.Error("near miss should not hit at τ=0")
	}
}

func TestFlatToleranceBoundary(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 2})
	c.Put(vec.Vector{0}, []int{1})
	tests := []struct {
		name string
		q    vec.Vector
		want bool
	}{
		{name: "inside", q: vec.Vector{1.5}, want: true},
		{name: "exactly at tolerance", q: vec.Vector{2}, want: true},
		{name: "outside", q: vec.Vector{2.5}, want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, ok := c.Get(tt.q); ok != tt.want {
				t.Errorf("Get(%v) hit = %v, want %v", tt.q, ok, tt.want)
			}
		})
	}
}

func TestFlatReturnsClosestEntry(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 4, Tolerance: 10})
	c.Put(vec.Vector{0}, []int{100})
	c.Put(vec.Vector{5}, []int{200})
	c.Put(vec.Vector{9}, []int{300})
	docs, ok := c.Get(vec.Vector{4})
	if !ok || docs[0] != 200 {
		t.Errorf("Get(4) = %v, %v; want docs of key 5", docs, ok)
	}
}

func TestFlatGetCopiesValue(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 1})
	c.Put(vec.Vector{0}, []int{1, 2, 3})
	docs, ok := c.Get(vec.Vector{0})
	if !ok {
		t.Fatal("expected hit")
	}
	docs[0] = 99
	again, _ := c.Get(vec.Vector{0})
	if again[0] != 1 {
		t.Error("Get must return a copy, not the cached slice")
	}
}

func TestFlatPutCopiesInputs(t *testing.T) {
	c := mustFlat(t, 2, Options{Capacity: 2, Tolerance: 0.5})
	key := vec.Vector{1, 1}
	val := []int{5}
	c.Put(key, val)
	key[0] = 100 // caller reuses buffers
	val[0] = 99
	docs, ok := c.Get(vec.Vector{1, 1})
	if !ok || docs[0] != 5 {
		t.Errorf("cache aliased caller memory: %v, %v", docs, ok)
	}
}

func TestFlatNilQuery(t *testing.T) {
	c := mustFlat(t, 2, Options{Capacity: 2, Tolerance: 1})
	if _, ok := c.Get(nil); ok {
		t.Error("nil query should miss")
	}
	c.Put(nil, []int{1}) // must not panic or insert
	if c.Len() != 0 {
		t.Error("nil Put should be ignored")
	}
	c.PutWithTolerance(vec.Vector{1, 2}, []int{1}, float32(math.NaN()))
	if c.Len() != 0 {
		t.Error("a NaN tolerance should be ignored like a negative one")
	}
}

// TestFlatWrongLengthInput: a key or query whose length is not the
// cache's dimension is ignored like nil, in both directions. A stored
// wrong-length key used to make every later well-formed lookup panic.
func TestFlatWrongLengthInput(t *testing.T) {
	for _, bad := range []vec.Vector{{1, 2}, {1, 2, 3, 4, 5}} {
		c := mustFlat(t, 4, Options{Capacity: 2, Tolerance: 100})
		c.Put(bad, []int{1})
		c.PutWithTolerance(bad, []int{1}, 100)
		if c.Len() != 0 {
			t.Fatalf("a %d-float key was stored in a 4-float cache", len(bad))
		}
		good := vec.Vector{1, 2, 3, 4}
		if _, ok := c.Get(good); ok {
			t.Error("empty cache hit")
		}
		c.Put(good, []int{2})
		if _, ok := c.Get(bad); ok {
			t.Errorf("a %d-float query hit", len(bad))
		}
		if _, ok := c.TierGet(bad); ok {
			t.Errorf("TierGet of a %d-float query hit", len(bad))
		}
		if _, ok := c.PeekAdmissible(bad); ok {
			t.Errorf("PeekAdmissible of a %d-float query hit", len(bad))
		}
		if s := c.Stats(); s.Hits != 0 || s.Misses != 1 || s.Puts != 1 || s.DistComps != 0 {
			t.Errorf("stats = %+v, want 1 put and the one well-formed miss", s)
		}
	}
}

// TestFlatStaleCommitIsNoOp: a TierHit whose line was evicted before
// its Commit counts the hit but refreshes nothing, even though another
// line has since moved into its slot.
func TestFlatStaleCommitIsNoOp(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 0.1, Policy: LRU})
	c.Put(vec.Vector{0}, []int{0})
	c.Put(vec.Vector{10}, []int{1})
	h, ok := c.TierGet(vec.Vector{0})
	if !ok {
		t.Fatal("expected a hot candidate")
	}
	c.Put(vec.Vector{20}, []int{2}) // evicts {0}; {10} takes over its slot
	h.Commit()
	entries := c.Entries()
	if len(entries) != 2 || entries[0].Docs[0] != 1 || entries[1].Docs[0] != 2 {
		t.Errorf("eviction order = %v, want docs 1 then 2", entries)
	}
	if s := c.Stats(); s.Hits != 1 {
		t.Errorf("Hits = %d, want 1", s.Hits)
	}
}

func TestFlatFIFOEviction(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 0.1, Policy: FIFO})
	c.Put(vec.Vector{0}, []int{0})
	c.Put(vec.Vector{10}, []int{1})
	// Touch the oldest entry; FIFO must ignore recency.
	if _, ok := c.Get(vec.Vector{0}); !ok {
		t.Fatal("warmup hit failed")
	}
	c.Put(vec.Vector{20}, []int{2})
	if _, ok := c.Get(vec.Vector{0}); ok {
		t.Error("FIFO should have evicted the oldest insert despite its recent use")
	}
	if _, ok := c.Get(vec.Vector{10}); !ok {
		t.Error("second insert should survive")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestFlatLRUEviction(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 0.1, Policy: LRU})
	c.Put(vec.Vector{0}, []int{0})
	c.Put(vec.Vector{10}, []int{1})
	// Refresh the older entry; LRU must then evict {10}.
	if _, ok := c.Get(vec.Vector{0}); !ok {
		t.Fatal("warmup hit failed")
	}
	c.Put(vec.Vector{20}, []int{2})
	if _, ok := c.Get(vec.Vector{0}); !ok {
		t.Error("LRU should keep the recently used entry")
	}
	if _, ok := c.Get(vec.Vector{10}); ok {
		t.Error("LRU should have evicted the least recently used entry")
	}
}

func TestFlatEvictionCounters(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 1, Tolerance: 0})
	c.Put(vec.Vector{0}, []int{0})
	c.Put(vec.Vector{1}, []int{1})
	c.Put(vec.Vector{2}, []int{2})
	s := c.Stats()
	if s.Puts != 3 || s.Evictions != 2 {
		t.Errorf("stats = %+v, want 3 puts 2 evictions", s)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestFlatClear(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 3, Tolerance: 1})
	c.Put(vec.Vector{0}, []int{0})
	c.Put(vec.Vector{1}, []int{1})
	before := c.Stats()
	c.Clear()
	if c.Len() != 0 {
		t.Error("Clear should empty the cache")
	}
	if got := c.Stats(); got.Puts != before.Puts {
		t.Error("Clear should preserve counters")
	}
	if _, ok := c.Get(vec.Vector{0}); ok {
		t.Error("cleared cache should miss")
	}
	// The cache must remain usable.
	c.Put(vec.Vector{5}, []int{9})
	if docs, ok := c.Get(vec.Vector{5}); !ok || docs[0] != 9 {
		t.Error("cache unusable after Clear")
	}
}

func TestFlatKeysOrder(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 3, Tolerance: 0.1, Policy: LRU})
	c.Put(vec.Vector{0}, nil)
	c.Put(vec.Vector{1}, nil)
	c.Put(vec.Vector{2}, nil)
	if _, ok := c.Get(vec.Vector{0}); !ok { // refresh {0} to the back
		t.Fatal("warmup hit failed")
	}
	entries := c.Entries()
	if len(entries) != 3 {
		t.Fatalf("Entries len = %d", len(entries))
	}
	if entries[0].Key[0] != 1 || entries[2].Key[0] != 0 {
		t.Errorf("eviction order = %v, want front=1 back=0", entries)
	}
}

// TestFlatPeek pins PeekAdmissible: the distance to the closest key
// whose own tolerance admits the query, with no effect on the hit and
// miss counters.
func TestFlatPeek(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 0})
	if _, ok := c.PeekAdmissible(vec.Vector{0}); ok {
		t.Error("PeekAdmissible on empty cache should report not-ok")
	}
	c.Put(vec.Vector{3}, nil)
	if d, ok := c.PeekAdmissible(vec.Vector{0}); ok {
		t.Errorf("PeekAdmissible = %v, true; a τ = 0 line must not admit a query 3 away", d)
	}
	c.PutWithTolerance(vec.Vector{3}, nil, 5)
	d, ok := c.PeekAdmissible(vec.Vector{0})
	if !ok || d != 3 {
		t.Errorf("PeekAdmissible = %v, %v; want 3, true", d, ok)
	}
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Error("PeekAdmissible must not affect hit/miss counters")
	}
}

func TestFlatDistCompAccounting(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 10, Tolerance: 100})
	for i := 0; i < 5; i++ {
		c.Put(vec.Vector{float32(i)}, nil)
	}
	if _, ok := c.Get(vec.Vector{0}); !ok {
		t.Fatal("expected a hit")
	}
	if got := c.Stats().DistComps; got != 5 {
		t.Errorf("DistComps = %d, want 5 (one per cached key)", got)
	}
}

// Property: the cache never exceeds its capacity and Len is consistent
// with puts minus evictions under random workloads, for both policies.
func TestFlatCapacityInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := vec.NewRand(seed)
		capacity := 1 + int(r.Uint64()%20)
		policy := FIFO
		if r.Uint64()%2 == 0 {
			policy = LRU
		}
		c, err := NewFlat(2, Options{
			Capacity:  capacity,
			Tolerance: float32(r.Float64() * 3),
			Policy:    policy,
		})
		if err != nil {
			return false
		}
		ops := 100 + int(r.Uint64()%200)
		for i := 0; i < ops; i++ {
			v := vec.RandomGaussian(r, 2)
			if r.Uint64()%2 == 0 {
				c.Put(v, []int{i})
			} else {
				c.Get(v)
			}
			if c.Len() > capacity {
				return false
			}
		}
		s := c.Stats()
		return int64(c.Len()) == s.Puts-s.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// The heads grow in whole blocks of vec.BlockRows lines and never past
// the ⌈c/8⌉ blocks a full cache fills, through evictions and a Clear.
func TestFlatHeadsStayWithinBlocks(t *testing.T) {
	for _, capacity := range []int{19, 20, 1000} {
		maxBlocks := (capacity + vec.BlockRows - 1) / vec.BlockRows
		c := mustFlat(t, vec.HeadLen, Options{Capacity: capacity, Tolerance: 1})
		rng := vec.NewRand(uint64(capacity))
		for i := 0; i < 3*capacity; i++ {
			if i == capacity+capacity/2 {
				c.Clear()
			}
			c.Put(vec.RandomGaussian(rng, vec.HeadLen), []int{i})
			if b := c.heads.Blocks(); b > maxBlocks || b*vec.BlockRows < c.Len() {
				t.Fatalf("capacity %d, %d lines: %d head blocks, want at least %d and at most %d",
					capacity, c.Len(), b, (c.Len()+vec.BlockRows-1)/vec.BlockRows, maxBlocks)
			}
		}
		if b := c.heads.Blocks(); b != maxBlocks {
			t.Fatalf("capacity %d full: %d head blocks, want %d", capacity, b, maxBlocks)
		}
	}
}

// Property: every hit returns the value of a key within tolerance — the
// approximate-cache contract. Verified against a brute-force scan of the
// cached lines.
func TestFlatHitImpliesWithinTolerance(t *testing.T) {
	f := func(seed uint64) bool {
		r := vec.NewRand(seed)
		tol := float32(r.Float64() * 2)
		c, err := NewFlat(3, Options{Capacity: 16, Tolerance: tol})
		if err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			c.Put(vec.RandomGaussian(r, 3), []int{i})
		}
		lines := c.Entries()
		for i := 0; i < 30; i++ {
			q := vec.RandomGaussian(r, 3)
			nearest := -1
			for j, e := range lines {
				if nearest < 0 || vec.L2(q, e.Key) < vec.L2(q, lines[nearest].Key) {
					nearest = j
				}
			}
			// Every line has tolerance τ, so a hit must serve the nearest.
			docs, hit := c.Get(q)
			if hit != (vec.L2(q, lines[nearest].Key) <= tol) || hit && docs[0] != lines[nearest].Docs[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFlatConcurrentAccess(t *testing.T) {
	c := mustFlat(t, 4, Options{Capacity: 64, Tolerance: 0.5, Policy: LRU})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := vec.NewRand(uint64(g))
			for i := 0; i < 500; i++ {
				v := vec.RandomGaussian(r, 4)
				if i%3 == 0 {
					c.Put(v, []int{i})
				} else {
					c.Get(v)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("capacity exceeded under concurrency: %d", c.Len())
	}
	s := c.Stats()
	if s.Lookups()+s.Puts == 0 {
		t.Error("no operations recorded")
	}
}

func TestStatsHitRate(t *testing.T) {
	s := Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
	if s.Lookups() != 4 {
		t.Errorf("Lookups = %d", s.Lookups())
	}
}

func TestPolicyStringAndParse(t *testing.T) {
	if FIFO.String() != "fifo" || LRU.String() != "lru" {
		t.Error("policy strings wrong")
	}
	if Policy(7).String() != "policy(7)" {
		t.Error("unknown policy string wrong")
	}
	if p, err := ParsePolicy("fifo"); err != nil || p != FIFO {
		t.Error("ParsePolicy fifo failed")
	}
	if p, err := ParsePolicy("lru"); err != nil || p != LRU {
		t.Error("ParsePolicy lru failed")
	}
	if _, err := ParsePolicy("mru"); err == nil {
		t.Error("unknown policy should error")
	}
}

// BenchmarkFlatGetCrowded is one FLAT hit per op on crowded keys
// (hardGeometry: c = 1 024, d = 768, four keys a centre). No key is
// ruled out on its head there, so every row survives the head test and
// each resume of the scan starts mid-block: the case where testing
// heads a block at a time does the most wasted work.
func BenchmarkFlatGetCrowded(b *testing.B) {
	const (
		dim       = 768
		centres   = 256
		perCentre = 4
	)
	g := hardGeometry(b, vec.NewRand(29), dim, centres, perCentre)
	c := mustFlat(b, dim, Options{Capacity: len(g.keys), Tolerance: g.tau})
	for i, k := range g.keys {
		c.Put(k, []int{i})
	}
	var hits []vec.Vector
	for _, q := range g.queries {
		if _, ok := c.Get(q); ok {
			hits = append(hits, q)
		}
	}
	if len(hits) < centres/2 {
		b.Fatalf("%d of %d queries hit", len(hits), len(g.queries))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(hits[i%len(hits)]); !ok {
			b.Fatal("a crowded query stopped hitting")
		}
	}
}
