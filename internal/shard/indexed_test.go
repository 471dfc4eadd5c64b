package shard

import (
	"testing"

	"proximity/internal/core"
	"proximity/internal/vec"
)

func TestNewIndexedSplitsCapacity(t *testing.T) {
	c, err := NewIndexed(8, 4, core.IndexedOptions{Capacity: 10, Tolerance: 0.2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 4 {
		t.Fatalf("shards=%d, want 4", c.NumShards())
	}
	// 10/4 rounded up = 3 per shard, 12 total.
	if got := c.Capacity(); got != 12 {
		t.Fatalf("capacity=%d, want 12", got)
	}
}

func TestShardedIndexedGetPut(t *testing.T) {
	c, err := NewIndexed(8, 4, core.IndexedOptions{Capacity: 400, Tolerance: 0.3, Seed: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(41)
	keys := make([]vec.Vector, 100)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomGaussian(rng, 8), 2)
		c.Put(keys[i], []int{i})
	}
	if c.Len() != 100 {
		t.Fatalf("len=%d, want 100", c.Len())
	}
	for i, k := range keys {
		docs, ok := c.Get(k)
		if !ok || len(docs) != 1 || docs[0] != i {
			t.Fatalf("key %d: docs=%v ok=%v", i, docs, ok)
		}
	}
	st := c.Stats()
	if st.Hits != 100 || st.Puts != 100 {
		t.Fatalf("stats=%+v", st)
	}
	is := *c.Stats().Index
	if is.Nodes != 100 {
		t.Fatalf("aggregated index nodes=%d, want 100", is.Nodes)
	}
}

func TestShardedIndexedReseedMigration(t *testing.T) {
	c, err := NewIndexed(8, 4, core.IndexedOptions{Capacity: 400, Tolerance: 0.3, Seed: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(43)
	keys := make([]vec.Vector, 80)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomGaussian(rng, 8), 2)
		c.Put(keys[i], []int{i})
	}
	mig, err := c.Reseed(99)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Moved == 0 {
		t.Fatal("reseed moved nothing; migration not exercised")
	}
	if c.Len() != 80 {
		t.Fatalf("len=%d after migration, want 80", c.Len())
	}
	for i, k := range keys {
		docs, ok := c.Get(k)
		if !ok || docs[0] != i {
			t.Fatalf("key %d lost in migration: docs=%v ok=%v", i, docs, ok)
		}
	}
}

func TestShardedFlatIndexStatsZero(t *testing.T) {
	c, err := NewFlat(4, 2, core.Options{Capacity: 10, Tolerance: 0.1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(vec.Vector{1, 2, 3, 4}, []int{1})
	if is := *c.Stats().Index; is != (core.IndexStats{}) {
		t.Fatalf("flat shards reported index stats: %+v", is)
	}
}

// TestShardedIndexedRepairStatsAcrossReseed churns a sharded indexed
// cache so sub-caches reuse slots and run maintenance, then verifies the
// aggregated repair counters survive a Reseed migration (the per-shard
// graph counters are cumulative, so aggregation only grows).
func TestShardedIndexedRepairStatsAcrossReseed(t *testing.T) {
	c, err := NewIndexed(8, 4, core.IndexedOptions{
		Capacity:    80,
		Tolerance:   0.3,
		Seed:        5,
		Maintenance: &core.MaintenanceOptions{Every: 8},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(45)
	for i := 0; i < 600; i++ {
		c.Put(vec.Scale(vec.RandomGaussian(rng, 8), 2), []int{i})
	}
	before := *c.Stats().Index
	if before.ReusedSlots == 0 || before.SeveredInEdges == 0 {
		t.Fatalf("churn did not drive slot reuse across shards: %+v", before)
	}
	if before.RepairPasses == 0 {
		t.Fatalf("scheduled maintenance never ran: %+v", before)
	}
	mig, err := c.Reseed(99)
	if err != nil {
		t.Fatal(err)
	}
	if mig.Moved == 0 {
		t.Fatal("reseed moved nothing; migration not exercised")
	}
	after := *c.Stats().Index
	if after.ReusedSlots < before.ReusedSlots || after.SeveredInEdges < before.SeveredInEdges ||
		after.RepairPasses < before.RepairPasses || after.RepairedNodes < before.RepairedNodes {
		t.Fatalf("repair counters regressed across Reseed:\nbefore %+v\nafter  %+v", before, after)
	}
}
