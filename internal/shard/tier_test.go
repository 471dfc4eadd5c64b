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
	dir := t.TempDir()
	c := newTieredShards(t, 4, 40, 160)
	rng := vec.NewRand(3)
	var keys []vec.Vector
	for i := 0; i < 250; i++ {
		k := vec.Scale(vec.RandomGaussian(rng, testDim), 2)
		c.PutWithTolerance(k, []int{i}, 1+float32(rng.Float64()))
		keys = append(keys, k)
	}
	lenBefore := c.Len()
	if err := c.WriteSnapshots(dir); err != nil {
		t.Fatal(err)
	}

	restored := newTieredShards(t, 4, 40, 160)
	if err := restored.LoadSnapshots(dir); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != lenBefore {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), lenBefore)
	}
	// Replay puts are subtracted: a restarted process reports no client
	// traffic yet.
	if s := restored.Stats(); s.Puts != 0 {
		t.Fatalf("restored Puts = %d, want 0", s.Puts)
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
// partitioner, not the one that wrote the files.
func TestTieredShardsSnapshotReshard(t *testing.T) {
	dir := t.TempDir()
	c := newTieredShards(t, 4, 40, 160)
	rng := vec.NewRand(5)
	for i := 0; i < 200; i++ {
		c.Put(vec.Scale(vec.RandomGaussian(rng, testDim), 2), []int{i})
	}
	lenBefore := c.Len()
	if err := c.WriteSnapshots(dir); err != nil {
		t.Fatal(err)
	}
	restored := newTieredShards(t, 2, 40, 160)
	if err := restored.LoadSnapshots(dir); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != lenBefore {
		t.Fatalf("resharded Len = %d, want %d", restored.Len(), lenBefore)
	}
}

func TestTieredShardsLoadSnapshotsMissingDir(t *testing.T) {
	c := newTieredShards(t, 2, 8, 16)
	if err := c.LoadSnapshots(filepath.Join(t.TempDir(), "nope")); err != nil {
		t.Fatalf("missing dir should load nothing, got %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// Reseed with tiered sub-caches: entries survive the re-draw, tier
// counters fold into the baseline, and retired warm files are released.
// Capacity is ample — deliveries into a full not-yet-swept shard displace
// genuinely (documented Reseed behavior), which is not what's under test.
func TestTieredShardsReseed(t *testing.T) {
	c := newTieredShards(t, 4, 80, 720)
	rng := vec.NewRand(7)
	var keys []vec.Vector
	for i := 0; i < 200; i++ {
		k := vec.Scale(vec.RandomGaussian(rng, testDim), 2)
		c.Put(k, []int{i})
		keys = append(keys, k)
	}
	lenBefore := c.Len()
	putsBefore := c.Stats().Puts
	demosBefore := c.Stats().Tier.Demotions
	if demosBefore == 0 {
		t.Fatal("expected demotions before reseed")
	}
	m, err := c.Reseed(999)
	if err != nil {
		t.Fatal(err)
	}
	if m.Moved == 0 {
		t.Fatal("re-draw moved nothing")
	}
	if c.Len() != lenBefore {
		t.Fatalf("Len after reseed = %d, want %d", c.Len(), lenBefore)
	}
	// Migration re-inserts are not client traffic.
	if got := c.Stats().Puts; got != putsBefore {
		t.Fatalf("Puts after reseed = %d, want %d", got, putsBefore)
	}
	// Cumulative tier counters survive the generation swap (re-homing
	// causes fresh demotions on top of the folded baseline).
	if got := c.Stats().Tier.Demotions; got < demosBefore {
		t.Fatalf("Demotions after reseed = %d, want >= %d", got, demosBefore)
	}
	// Entries still reachable by exact repeat.
	hits := 0
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(keys[len(keys)-1-i]); ok {
			hits++
		}
	}
	if hits < 90 {
		t.Fatalf("post-reseed hits = %d/100", hits)
	}
}
