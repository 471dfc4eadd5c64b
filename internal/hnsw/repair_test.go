package hnsw

import (
	"fmt"
	"testing"

	"math/rand/v2"

	"proximity/internal/vec"
)

// churn drives FIFO insert/delete cycles through ix: it keeps at most
// capacity live nodes, deleting the oldest before each insert past the
// cap, and returns the live id→vector map.
func churn(t *testing.T, ix *Index, rng *rand.Rand, dim, capacity, total int) map[int]vec.Vector {
	t.Helper()
	var fifo []int
	keys := make(map[int]vec.Vector)
	for i := 0; i < total; i++ {
		if len(fifo) >= capacity {
			victim := fifo[0]
			fifo = fifo[1:]
			if err := ix.Delete(victim); err != nil {
				t.Fatal(err)
			}
			delete(keys, victim)
		}
		v := vec.RandomGaussian(rng, dim)
		id, err := ix.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		fifo = append(fifo, id)
		keys[id] = v
	}
	return keys
}

// checkInEdgeInvariant asserts the reverse-ref bookkeeping is exact:
// every edge u→v at every layer has a tracked ref (u, layer) in
// inEdges[v], and every tracked ref corresponds to a real edge. Only
// meaningful while no refs have been dropped at the per-slot bound.
func checkInEdgeInvariant(t *testing.T, ix *Index) {
	t.Helper()
	if ix.Maintenance().DroppedInRefs > 0 {
		t.Fatal("in-edge bound overflowed; invariant check needs a larger bound")
	}
	hasRef := func(v, u, layer int) bool {
		for _, r := range ix.inEdges[v] {
			if int(r.node) == u && int(r.layer) == layer {
				return true
			}
		}
		return false
	}
	forEachEdge := func(f func(u, v, layer int)) {
		for u := range ix.base {
			for _, v := range ix.base[u] {
				f(u, v, 0)
			}
		}
		for l := range ix.upper {
			for u, ns := range ix.upper[l] {
				for _, v := range ns {
					f(u, v, l+1)
				}
			}
		}
	}
	edges := 0
	forEachEdge(func(u, v, layer int) {
		edges++
		if !hasRef(v, u, layer) {
			t.Fatalf("edge %d→%d at layer %d has no reverse ref", u, v, layer)
		}
	})
	refs := 0
	for v := range ix.inEdges {
		refs += len(ix.inEdges[v])
		for _, r := range ix.inEdges[v] {
			u, l := int(r.node), int(r.layer)
			found := false
			for _, n := range ix.neighbors(u, l) {
				if n == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("stale reverse ref: %d lists (%d, layer %d) but no such edge", v, u, l)
			}
		}
	}
	if refs != edges {
		t.Fatalf("tracked refs=%d, edges=%d (duplicate refs)", refs, edges)
	}
}

// TestInEdgeInvariantUnderChurn is the bookkeeping property test: after
// heavy FIFO churn with slot reuse, the reverse-edge lists must mirror
// the adjacency exactly — no missed edges (stale edges would survive the
// next reuse) and no stale refs (severing would corrupt a live list).
func TestInEdgeInvariantUnderChurn(t *testing.T) {
	ix, err := New(4, vec.L2Distance, Config{M: 6, EfConstruction: 40, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ix.inBound = 1 << 20 // exact invariant needs no layer-0 drops
	rng := vec.NewRand(32)
	churn(t, ix, rng, 4, 60, 600)
	checkInEdgeInvariant(t, ix)
	if m := ix.Maintenance(); m.ReusedSlots == 0 || m.SeveredInEdges == 0 {
		t.Fatalf("churn did not exercise reuse repair: %+v", m)
	}
}

// TestReuseSeversStaleUpperReferences is the level-bookkeeping
// regression: a slot recycled at a LOWER level than its previous life
// must not be referenced by any upper-layer adjacency above its new
// level — stale in-edges from the old life used to keep routing the
// greedy descent into the reused slot.
func TestReuseSeversStaleUpperReferences(t *testing.T) {
	ix, err := New(4, vec.L2Distance, Config{M: 4, EfConstruction: 40, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(34)
	for i := 0; i < 400; i++ {
		if _, err := ix.Insert(vec.RandomGaussian(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	demotions := 0
	for round := 0; round < 40; round++ {
		// Pick a high-level node (not the entry, to keep the scenario
		// minimal) and recycle its slot; the fresh geometric draw lands
		// on level 0 with probability 3/4.
		victim := -1
		for i := range ix.levels {
			if ix.levels[i] >= 1 && i != ix.entry && !ix.deleted[i] {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Fatal("no high-level node to recycle")
		}
		oldLevel := ix.levels[victim]
		if err := ix.Delete(victim); err != nil {
			t.Fatal(err)
		}
		id, err := ix.Insert(vec.RandomGaussian(rng, 4)) // free list is LIFO: reuses victim's slot
		if err != nil {
			t.Fatal(err)
		}
		if id != victim {
			t.Fatalf("round %d: expected slot %d reuse, got %d", round, victim, id)
		}
		if ix.levels[id] < oldLevel {
			demotions++
		}
		// No upper layer above the slot's new level may reference it,
		// outgoing or incoming.
		for l := range ix.upper {
			layer := l + 1
			if layer <= ix.levels[id] {
				continue
			}
			if _, ok := ix.upper[l][id]; ok {
				t.Fatalf("round %d: reused slot %d keeps outgoing edges at layer %d > level %d",
					round, id, layer, ix.levels[id])
			}
			for node, ns := range ix.upper[l] {
				for _, n := range ns {
					if n == id {
						t.Fatalf("round %d: stale in-edge %d→%d at layer %d > level %d",
							round, node, id, layer, ix.levels[id])
					}
				}
			}
		}
	}
	if demotions == 0 {
		t.Fatal("no recycle drew a lower level; regression not exercised")
	}
}

// TestChurnSelfRecallWithRepair pins the headline fix: after 10x-capacity
// churn, live vectors must still find themselves. The pre-repair graph
// lost several percent here; severing plus re-routing holds ≥ 0.98, and
// draining the repair queue must not regress it.
func TestChurnSelfRecallWithRepair(t *testing.T) {
	const capacity, dim = 100, 4
	ix, err := New(dim, vec.L2Distance, Config{M: 8, EfConstruction: 60, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ix.inBound = 1 << 20 // exact invariant check at the end needs no drops
	rng := vec.NewRand(11)
	keys := churn(t, ix, rng, dim, capacity, 1000)
	selfRecall := func() float64 {
		found := 0
		for id, v := range keys {
			res, err := ix.SearchEf(v, 1, 128)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) == 1 && res[0].ID == id {
				found++
			}
		}
		return float64(found) / float64(len(keys))
	}
	if frac := selfRecall(); frac < 0.98 {
		t.Fatalf("post-churn self-recall %.3f with in-edge repair, want ≥ 0.98", frac)
	}
	for ix.PendingRepair() > 0 {
		ix.Repair(64)
	}
	if frac := selfRecall(); frac < 0.98 {
		t.Fatalf("self-recall %.3f after draining Repair, want ≥ 0.98", frac)
	}
	checkInEdgeInvariant(t, ix)
}

// TestRepairCountersAndQueue exercises the incremental pass: budgeted
// dequeue, pressure-counter reset, and no-ops on empty queues and zero
// budgets.
func TestRepairCountersAndQueue(t *testing.T) {
	ix, err := New(4, vec.L2Distance, Config{M: 4, EfConstruction: 30, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(36)
	churn(t, ix, rng, 4, 50, 500)
	m := ix.Maintenance()
	if m.ReusedSlots == 0 || m.ReusedSinceRepair == 0 {
		t.Fatalf("churn pressure not tracked: %+v", m)
	}
	if st := ix.Repair(0); st.Examined != 0 {
		t.Fatalf("Repair(0) examined %d nodes", st.Examined)
	}
	total := 0
	for ix.PendingRepair() > 0 {
		st := ix.Repair(3)
		if st.Examined > 3 {
			t.Fatalf("budget 3 exceeded: examined %d", st.Examined)
		}
		if st.Examined == 0 {
			t.Fatal("pending queue nonempty but nothing examined")
		}
		total += st.Relinked
	}
	m = ix.Maintenance()
	if m.ReusedSinceRepair != 0 {
		t.Fatalf("ReusedSinceRepair=%d after Repair, want 0", m.ReusedSinceRepair)
	}
	if m.RepairPasses == 0 || int(m.RepairedNodes) != total {
		t.Fatalf("pass counters off: %+v vs relinked %d", m, total)
	}
	// An empty-queue pass still resets pressure and counts the pass.
	before := m.RepairPasses
	if st := ix.Repair(8); st.Examined != 0 || st.Relinked != 0 {
		t.Fatalf("empty-queue Repair did work: %+v", st)
	}
	if got := ix.Maintenance().RepairPasses; got != before+1 {
		t.Fatalf("RepairPasses=%d, want %d", got, before+1)
	}
}

// TestDisableInEdgeRepair pins the legacy escape hatch: no reverse-edge
// tracking, no severing, reuse counted but otherwise the pre-repair
// behavior (the churn experiment's baseline arm).
func TestDisableInEdgeRepair(t *testing.T) {
	ix, err := New(4, vec.L2Distance, Config{M: 4, EfConstruction: 30, Seed: 37, DisableInEdgeRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(38)
	churn(t, ix, rng, 4, 40, 200)
	m := ix.Maintenance()
	if m.ReusedSlots == 0 {
		t.Fatal("reuse not counted")
	}
	if m.SeveredInEdges != 0 || m.ReroutedInEdges != 0 || m.PendingRepair != 0 {
		t.Fatalf("repair machinery ran with tracking disabled: %+v", m)
	}
	if ix.inEdges != nil {
		t.Fatal("inEdges allocated with tracking disabled")
	}
	if _, err := ix.Search(vec.RandomGaussian(rng, 4), 3); err != nil {
		t.Fatal(err)
	}
}

// TestResetEntryFallbackScan forces the slow path: when every neighbor
// of the deleted entry is already tombstoned, re-election must fall back
// to the full scan and still find the surviving node.
func TestResetEntryFallbackScan(t *testing.T) {
	ix, err := New(2, vec.L2Distance, Config{M: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := ix.Insert(vec.Vector{float32(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstone every neighbor the entry lists, then the entry itself.
	entry := ix.entry
	for l := ix.levels[entry]; l >= 0; l-- {
		for _, n := range append([]int(nil), ix.neighbors(entry, l)...) {
			if !ix.deleted[n] {
				if err := ix.Delete(n); err != nil {
					t.Fatal(err)
				}
				if ix.entry != entry {
					t.Fatal("deleting a neighbor displaced the entry")
				}
			}
		}
	}
	if err := ix.Delete(entry); err != nil {
		t.Fatal(err)
	}
	if ix.Len() > 0 {
		if ix.entry < 0 || ix.deleted[ix.entry] {
			t.Fatalf("fallback scan elected entry %d (deleted=%v)", ix.entry, ix.entry >= 0 && ix.deleted[ix.entry])
		}
		if _, err := ix.Search(vec.Vector{0, 0}, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkDeleteEntryHeavy guards the resetEntry fast path: repeatedly
// deleting the entry node used to pay an O(n) scan per Delete, making
// entry-targeted eviction quadratic. The neighbor-first re-election keeps
// it O(M·levels).
func BenchmarkDeleteEntryHeavy(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			ix, err := New(8, vec.L2Distance, Config{M: 8, EfConstruction: 40, Seed: 43})
			if err != nil {
				b.Fatal(err)
			}
			rng := vec.NewRand(44)
			for i := 0; i < n; i++ {
				if _, err := ix.Insert(vec.RandomGaussian(rng, 8)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Delete(ix.entry); err != nil {
					b.Fatal(err)
				}
				if _, err := ix.Insert(vec.RandomGaussian(rng, 8)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
