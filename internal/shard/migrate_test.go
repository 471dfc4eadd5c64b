package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"proximity/internal/core"
	"proximity/internal/vec"
)

// clusteredKeys builds tight clusters of keys: members share an LSH
// signature with high probability (small jitter around a common center),
// so coarse-signature routing concentrates whole clusters on shards —
// the skew regime rebalancing exists for.
func clusteredKeys(seed uint64, clusters, perCluster int) []vec.Vector {
	rng := vec.NewRand(seed)
	out := make([]vec.Vector, 0, clusters*perCluster)
	for c := 0; c < clusters; c++ {
		center := vec.RandomGaussian(rng, testDim)
		for m := 0; m < perCluster; m++ {
			q := vec.Clone(center)
			jitter := vec.RandomGaussian(rng, testDim)
			for d := range q {
				q[d] += 0.1 * jitter[d]
			}
			out = append(out, q)
		}
	}
	return out
}

// newCoarseShards builds a sharded FLAT cache with a deliberately coarse
// signature (lumpy routing) and ample capacity.
func newCoarseShards(t *testing.T, shards int, capacity int, seed uint64) *ShardedCache {
	t.Helper()
	c, err := New(testDim, Options{
		Shards:        shards,
		Seed:          seed,
		SignatureBits: 4,
		New: func(int) (core.Cache, error) {
			return core.NewFlat(testDim, core.Options{
				Capacity:  capacity,
				Tolerance: 0.5,
				Policy:    core.LRU,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestImbalanceEdgeCases: the pressure report's Imbalance must be a
// defined 1.0 — never NaN or Inf — for empty and single-shard caches,
// or every threshold comparison in the controller would be false.
func TestImbalanceEdgeCases(t *testing.T) {
	one := []vec.Vector{vec.RandomGaussian(vec.NewRand(1), testDim)}
	cases := []struct {
		name   string
		shards int
		keys   []vec.Vector
		want   float64
	}{
		{"all shards empty", 4, nil, 1},
		{"single shard empty", 1, nil, 1},
		{"single shard with entries", 1, one, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCoarseShards(t, tc.shards, 16, 42)
			for i, k := range tc.keys {
				c.Put(k, []int{i})
			}
			got := c.Report().Imbalance
			if got != tc.want {
				t.Errorf("Imbalance = %v, want %v (must be defined, not NaN/Inf)", got, tc.want)
			}
			// PreviewSeed shares the definition.
			pred, err := c.PreviewSeed(99)
			if err != nil {
				t.Fatal(err)
			}
			if pred != tc.want {
				t.Errorf("PreviewSeed imbalance = %v, want %v", pred, tc.want)
			}
		})
	}
}

// TestReseedMigratesEntries: after a re-draw every entry is findable at
// its new shard (an exact-key lookup is distance 0, within any
// tolerance), the total entry count is unchanged, and the partitioner
// reports the new seed.
func TestReseedMigratesEntries(t *testing.T) {
	c := newCoarseShards(t, 4, 256, 42)
	keys := clusteredKeys(7, 8, 16)
	for i, k := range keys {
		c.Put(k, []int{i})
	}
	before := c.Len()

	m, err := c.Reseed(12345)
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed() != 12345 {
		t.Errorf("Seed() = %d, want 12345", c.Seed())
	}
	if got := c.Len(); got != before {
		t.Errorf("Len after migration = %d, want %d", got, before)
	}
	// A quiet migration accounts for every entry exactly once — entries
	// delivered ahead of their destination's sweep must not double-count
	// as "stayed" when that sweep re-enumerates them.
	if m.Moved+m.Stayed != before {
		t.Errorf("migration accounted for %d entries (moved %d, stayed %d), want exactly %d",
			m.Moved+m.Stayed, m.Moved, m.Stayed, before)
	}
	for i, k := range keys {
		docs, ok := c.Get(k)
		if !ok {
			t.Fatalf("key %d lost by migration", i)
		}
		if len(docs) != 1 || docs[0] != i {
			t.Errorf("key %d returned %v after migration", i, docs)
		}
		// The entry must live where the NEW draw routes it.
		if got := c.ShardFor(k); c.Shard(got).Len() == 0 {
			t.Errorf("key %d routes to empty shard %d", i, got)
		}
	}
	if !strings.Contains(m.String(), "reseed(seed=12345)") {
		t.Errorf("migration summary %q missing seed", m.String())
	}
}

// TestPreviewSeedPredictsReseed: with no concurrent traffic, the
// predicted imbalance for a candidate seed equals the measured imbalance
// after migrating to it.
func TestPreviewSeedPredictsReseed(t *testing.T) {
	c := newCoarseShards(t, 4, 256, 42)
	for i, k := range clusteredKeys(11, 6, 20) {
		c.Put(k, []int{i})
	}
	const candidate = 777
	pred, err := c.PreviewSeed(candidate)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Reseed(candidate)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Report().Imbalance; got != pred {
		t.Errorf("measured imbalance %v != predicted %v", got, pred)
	}
	if m.After != pred {
		t.Errorf("migration After %v != predicted %v", m.After, pred)
	}
}

// TestReseedPutsCountersConserved: migration re-inserts must not inflate
// the Puts counter — after a quiet migration the counters read exactly
// as if it never happened.
func TestReseedCountersConserved(t *testing.T) {
	c := newCoarseShards(t, 4, 256, 42)
	keys := clusteredKeys(13, 8, 16)
	for i, k := range keys {
		c.Put(k, []int{i})
	}
	for _, k := range keys[:40] {
		c.Get(k)
	}
	before := c.Stats()
	if _, err := c.Reseed(999); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Puts != before.Puts {
		t.Errorf("Puts %d -> %d across a quiet migration", before.Puts, after.Puts)
	}
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("lookup counters changed: %+v -> %+v", before, after)
	}
	if after.Evictions != before.Evictions {
		t.Errorf("ample-capacity migration evicted: %d -> %d", before.Evictions, after.Evictions)
	}
	// Per-shard counters (with retired-generation baselines) still sum
	// to the aggregate.
	var sum core.Stats
	for _, st := range c.ShardStats() {
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Puts += st.Puts
		sum.Evictions += st.Evictions
	}
	if sum.Puts != after.Puts || sum.Hits != after.Hits || sum.Misses != after.Misses {
		t.Errorf("per-shard sum %+v disagrees with aggregate %+v", sum, after)
	}
}

// TestReseedTypedErrors covers the failure contract: fingerprint routing
// has nothing to re-draw, only one migration may run at a time, and a
// sub-cache that cannot enumerate its entries is refused up front.
func TestReseedTypedErrors(t *testing.T) {
	fp, err := New(testDim, Options{
		Shards:    4,
		Partition: Fingerprint,
		New: func(int) (core.Cache, error) {
			return core.NewFlat(testDim, core.Options{Capacity: 8, Tolerance: 1})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fp.Reseed(1); !errors.Is(err, ErrFingerprintPartition) {
		t.Errorf("fingerprint Reseed error = %v, want ErrFingerprintPartition", err)
	}
	if _, err := fp.PreviewSeed(1); !errors.Is(err, ErrFingerprintPartition) {
		t.Errorf("fingerprint PreviewSeed error = %v, want ErrFingerprintPartition", err)
	}

	c := newCoarseShards(t, 2, 64, 1)
	c.migrateMu.Lock() // simulate an in-flight migration (or Clear)
	if _, err := c.Reseed(2); !errors.Is(err, ErrMigrationInProgress) {
		t.Errorf("overlapping Reseed error = %v, want ErrMigrationInProgress", err)
	}
	c.migrateMu.Unlock()

	// A factory whose sub-cache cannot enumerate entries is refused at
	// construction: such a cache could be neither re-drawn nor
	// snapshotted.
	if _, err := New(testDim, Options{
		Shards: 2,
		Seed:   3,
		New: func(int) (core.Cache, error) {
			return opaqueCache{}, nil
		},
	}); !errors.Is(err, ErrNotMigratable) {
		t.Errorf("opaque New error = %v, want ErrNotMigratable", err)
	}
}

// TestReseedFactoryFailurePreflight: a factory that breaks after
// construction must fail the migration BEFORE any routing state
// changes — every entry stays findable and the seed is untouched, never
// a half-migrated cache.
func TestReseedFactoryFailurePreflight(t *testing.T) {
	builds := 0
	c, err := New(testDim, Options{
		Shards:        4,
		Seed:          42,
		SignatureBits: 4,
		New: func(int) (core.Cache, error) {
			builds++
			if builds > 4 { // construction succeeds; the rebuild probe fails
				return nil, fmt.Errorf("factory broke")
			}
			return core.NewFlat(testDim, core.Options{Capacity: 256, Tolerance: 0.5})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := clusteredKeys(23, 6, 16)
	for i, k := range keys {
		c.Put(k, []int{i})
	}
	if _, err := c.Reseed(777); err == nil {
		t.Fatal("Reseed should surface the factory failure")
	}
	if c.Seed() != 42 {
		t.Errorf("failed migration changed the seed to %d", c.Seed())
	}
	for i, k := range keys {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d unreachable after a failed (pre-flight) migration", i)
		}
	}
}

// TestClearWinsOverMigration: a Clear racing a migration must leave the
// cache empty — either it queues behind the migration and erases its
// result, or it holds the structural lock first and the Reseed backs
// off with ErrMigrationInProgress. No interleaving may resurrect
// flushed entries.
func TestClearWinsOverMigration(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		c := newCoarseShards(t, 4, 1024, 42)
		for i, k := range clusteredKeys(uint64(30+iter), 8, 16) {
			c.Put(k, []int{i})
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.Reseed(uint64(5000 + iter))
			done <- err
		}()
		c.Clear()
		if err := <-done; err != nil && !errors.Is(err, ErrMigrationInProgress) {
			t.Fatal(err)
		}
		if got := c.Len(); got != 0 {
			t.Fatalf("iteration %d: %d entries resurrected after Clear raced the migration", iter, got)
		}
	}
}

// opaqueCache is a core.Cache without EntrySource.
type opaqueCache struct{}

func (opaqueCache) Get(vec.Vector) ([]int, bool)                { return nil, false }
func (opaqueCache) Put(vec.Vector, []int)                       {}
func (opaqueCache) PutWithTolerance(vec.Vector, []int, float32) {}
func (opaqueCache) Len() int                                    { return 0 }
func (opaqueCache) Capacity() int                               { return 1 }
func (opaqueCache) Stats() core.Stats                           { return core.Stats{} }
func (opaqueCache) Clear()                                      {}

// TestNoStrandedEntries guards the no-stranding invariant behind the
// route-then-lock revalidation in slotFor: a Put that resolved its
// shard under the OLD draw and acquired the slot lock only after the
// migration had swept that shard would strand the entry where the new
// routing never looks. Under a storm of migrations, every concurrently
// inserted key must be findable once the dust settles (capacity is
// ample, so eviction cannot explain a loss). The hash-to-lock window is
// a few instructions, so this is an invariant check rather than a
// reliable reproducer of the original interleaving — the argument for
// the fix is the pointer re-check's happens-before reasoning in
// slotFor's comment.
func TestNoStrandedEntries(t *testing.T) {
	c := newCoarseShards(t, 4, 4096, 42)
	const (
		writers = 4
		perW    = 200
	)
	var writersWG, reseedWG sync.WaitGroup
	stop := make(chan struct{})
	keys := make([][]vec.Vector, writers)
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			rng := vec.NewRand(uint64(500 + g))
			for i := 0; i < perW; i++ {
				k := vec.RandomGaussian(rng, testDim)
				keys[g] = append(keys[g], k)
				c.Put(k, []int{g, i})
			}
		}(g)
	}
	reseedWG.Add(1)
	go func() {
		defer reseedWG.Done()
		seed := uint64(9000)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := c.Reseed(seed); err != nil {
					t.Errorf("reseed: %v", err)
					return
				}
				seed++
			}
		}
	}()
	writersWG.Wait()
	close(stop)
	reseedWG.Wait()

	for g := range keys {
		for i, k := range keys[g] {
			if _, ok := c.Get(k); !ok {
				t.Fatalf("writer %d key %d stranded by a concurrent migration", g, i)
			}
		}
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("evictions %d under ample capacity invalidate the test premise", ev)
	}
}

// TestConcurrentMigration hammers Get/Put from many goroutines while
// repeated re-draw migrations run, then checks the books: every client
// operation is accounted for exactly once (hits+misses == gets issued,
// puts == puts issued — the migration's own re-inserts must cancel out),
// which under -race also proves the slot swaps publish safely.
func TestConcurrentMigration(t *testing.T) {
	c := newCoarseShards(t, 4, 512, 42)
	keys := clusteredKeys(17, 8, 24)
	for i, k := range keys {
		c.Put(k, []int{i})
	}

	const (
		workers = 4
		opsEach = 400
	)
	var gets, puts atomic.Int64
	var migrated atomic.Bool // set once the first Reseed has returned
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := vec.NewRand(uint64(100 + g))
			// Each worker issues at least opsEach ops and keeps going
			// until one migration has completed, so a migration always
			// overlaps traffic however fast the ops are.
			for i := 0; i < opsEach || !migrated.Load(); i++ {
				if i%3 == 0 {
					c.Put(vec.RandomGaussian(rng, testDim), []int{i})
					puts.Add(1)
				} else {
					c.Get(keys[rng.IntN(len(keys))])
					gets.Add(1)
				}
			}
		}(g)
	}

	// Migrations interleave with the traffic above until it drains.
	stop := make(chan struct{})
	reseedDone := make(chan struct{})
	var migrations int
	go func() {
		defer close(reseedDone)
		for seed := uint64(1000); ; seed++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Reseed(seed); err != nil {
				t.Errorf("mid-traffic Reseed: %v", err)
				migrated.Store(true) // release the workers
				return
			}
			migrations++
			migrated.Store(true)
		}
	}()
	wg.Wait()
	close(stop)
	<-reseedDone

	if migrations == 0 {
		t.Fatal("no migration overlapped the traffic")
	}
	st := c.Stats()
	wantPuts := int64(len(keys)) + puts.Load()
	if st.Puts != wantPuts {
		t.Errorf("Puts = %d, want %d (migration re-inserts must not count)", st.Puts, wantPuts)
	}
	if st.Lookups() != gets.Load() {
		t.Errorf("Lookups = %d, want %d (no lost hits/misses)", st.Lookups(), gets.Load())
	}
	if st.Hits > st.Lookups() {
		t.Errorf("hits %d exceed lookups %d", st.Hits, st.Lookups())
	}
	// Entries in = entries resident + evictions out.
	if got := int64(c.Len()) + st.Evictions; got != wantPuts {
		t.Errorf("Len+Evictions = %d, want %d (no lost entries/evictions)", got, wantPuts)
	}
}
