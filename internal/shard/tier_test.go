package shard

import (
	"path/filepath"
	"testing"

	"proximity/internal/core"
	"proximity/internal/tier"
	"proximity/internal/vec"
)

func newTieredShards(t *testing.T, shards, hot, warm int) *ShardedCache {
	t.Helper()
	c, err := NewTiered(testDim, shards, tier.Options{
		HotCapacity:  hot,
		WarmCapacity: warm,
		Tolerance:    1,
		Policy:       core.LRU,
		Dir:          t.TempDir(),
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTieredShardsBasic(t *testing.T) {
	c := newTieredShards(t, 4, 40, 160)
	if got := c.Capacity(); got < 200 {
		t.Fatalf("Capacity = %d, want >= 200", got)
	}
	rng := vec.NewRand(1)
	var keys []vec.Vector
	for i := 0; i < 300; i++ {
		k := vec.Scale(vec.RandomGaussian(rng, testDim), 2)
		c.Put(k, []int{i})
		keys = append(keys, k)
	}
	hits := 0
	for i := 0; i < 100; i++ {
		// Exact repeats of recent keys: distance 0 hits regardless of
		// which tier holds them.
		if docs, ok := c.Get(keys[len(keys)-1-i]); ok && docs[0] == len(keys)-1-i {
			hits++
		}
	}
	if hits < 90 {
		t.Fatalf("recent-key hits = %d/100", hits)
	}
	st := *c.Stats().Tier
	if st.HotEntries == 0 || st.WarmEntries == 0 || st.Demotions == 0 {
		t.Fatalf("tier stats not flowing: %+v", st)
	}
	if st.HotEntries+st.WarmEntries != c.Len() {
		t.Fatalf("gauge sum %d != Len %d", st.HotEntries+st.WarmEntries, c.Len())
	}
	// A sharded flat cache reports the zero value.
	if flat := newFlatShards(t, 2, 100); *flat.Stats().Tier != (core.TierStats{}) {
		t.Fatal("flat shards should report zero tier stats")
	}
}

func TestTieredShardsSnapshotRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	c := newTieredShards(t, 4, 40, 160)
	rng := vec.NewRand(3)
	var keys []vec.Vector
	for i := 0; i < 250; i++ {
		k := vec.Scale(vec.RandomGaussian(rng, testDim), 2)
		c.PutWithTolerance(k, []int{i}, 1+float32(rng.Float64()))
		keys = append(keys, k)
	}
	lenBefore := c.Len()
	if err := core.SaveSnapshot(path, testDim, c); err != nil {
		t.Fatal(err)
	}

	restored := newTieredShards(t, 4, 40, 160)
	n, err := core.LoadSnapshot(path, testDim, restored)
	if err != nil {
		t.Fatal(err)
	}
	if n != lenBefore || restored.Len() != lenBefore {
		t.Fatalf("restored %d entries, Len = %d, want %d", n, restored.Len(), lenBefore)
	}
	// The replay is counted as the Puts it made.
	if s := restored.Stats(); s.Puts != int64(n) {
		t.Fatalf("restored Puts = %d, want %d", s.Puts, n)
	}
	// Both caches answer recent exact repeats identically.
	for i := 0; i < 80; i++ {
		k := keys[len(keys)-1-i]
		d1, ok1 := c.Get(k)
		d2, ok2 := restored.Get(k)
		if ok1 != ok2 || (ok1 && d1[0] != d2[0]) {
			t.Fatalf("key %d: original %v %v, restored %v %v", i, d1, ok1, d2, ok2)
		}
	}
}

// Snapshots survive a shard-count change: replay routes by the live
// partitioner, not the one that wrote the file.
func TestTieredShardsSnapshotReshard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	c := newTieredShards(t, 4, 40, 160)
	rng := vec.NewRand(5)
	for i := 0; i < 200; i++ {
		c.Put(vec.Scale(vec.RandomGaussian(rng, testDim), 2), []int{i})
	}
	lenBefore := c.Len()
	if err := core.SaveSnapshot(path, testDim, c); err != nil {
		t.Fatal(err)
	}
	restored := newTieredShards(t, 2, 40, 160)
	if _, err := core.LoadSnapshot(path, testDim, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != lenBefore {
		t.Fatalf("resharded Len = %d, want %d", restored.Len(), lenBefore)
	}
}

func TestTieredShardsLoadSnapshotMissingFile(t *testing.T) {
	c := newTieredShards(t, 2, 8, 16)
	n, err := core.LoadSnapshot(filepath.Join(t.TempDir(), "nope"), testDim, c)
	if err != nil || n != 0 {
		t.Fatalf("a missing snapshot should load nothing, got %d, %v", n, err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
}
