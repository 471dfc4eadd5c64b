package cluster

import (
	"reflect"
	"testing"
)

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty membership should error")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate node should error")
	}
	if _, err := NewRing([]string{""}); err == nil {
		t.Error("empty node ID should error")
	}
}

func TestRingDeterministicAndOrderInsensitive(t *testing.T) {
	a, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for key := uint32(0); key < 1000; key++ {
		la, lb := a.Lookup(key), b.Lookup(key)
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("key %d: membership order changed the ring: %v vs %v", key, la, lb)
		}
	}
}

// TestRingLookupCoversAllNodesDistinctly: the replica order is a
// permutation of the membership — every node appears exactly once, the
// primary first.
func TestRingLookupCoversAllNodesDistinctly(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4"}
	r, err := NewRing(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint32(0); key < 1000; key++ {
		order := r.Lookup(key)
		if len(order) != len(nodes) {
			t.Fatalf("key %d: lookup returned %d nodes, want %d", key, len(order), len(nodes))
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("key %d: node %s repeated in replica order %v", key, n, order)
			}
			seen[n] = true
		}
		if order[0] != r.Primary(key) {
			t.Fatalf("key %d: Lookup[0] = %s, Primary = %s", key, order[0], r.Primary(key))
		}
	}
}

// TestRingBalance: with default vnodes, no node's share of a uniform
// keyspace should stray wildly from 1/N.
func TestRingBalance(t *testing.T) {
	const keys = 20000
	r, err := NewRing([]string{"n1", "n2", "n3", "n4"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for key := uint32(0); key < keys; key++ {
		counts[r.Primary(key)]++
	}
	want := keys / r.Len()
	for n, got := range counts {
		if got < want/2 || got > 2*want {
			t.Errorf("node %s owns %d of %d keys, want within [%d, %d]", n, got, keys, want/2, 2*want)
		}
	}
}

// TestRingMinimalMovement: a node joining a 4-node ring should take over
// roughly 1/5 of the keyspace and leave every other assignment alone —
// the property that preserves warm cache entries across rebalances.
func TestRingMinimalMovement(t *testing.T) {
	const keys = 20000
	r4, err := NewRing([]string{"n1", "n2", "n3", "n4"})
	if err != nil {
		t.Fatal(err)
	}
	r5, err := r4.WithNode("n5")
	if err != nil {
		t.Fatal(err)
	}
	moved, movedElsewhere := 0, 0
	for key := uint32(0); key < keys; key++ {
		before, after := r4.Primary(key), r5.Primary(key)
		if before != after {
			moved++
			if after != "n5" {
				movedElsewhere++
			}
		}
	}
	if movedElsewhere != 0 {
		t.Errorf("%d keys moved between surviving nodes; a join must only move keys to the joiner", movedElsewhere)
	}
	// Expected movement is 1/5; allow generous slack for vnode variance.
	if frac := float64(moved) / keys; frac > 0.4 {
		t.Errorf("join moved %.1f%% of keys, want ~20%%", 100*frac)
	}

	// Leaving restores the old assignment exactly.
	back, err := r5.WithoutNode("n5")
	if err != nil {
		t.Fatal(err)
	}
	for key := uint32(0); key < keys; key++ {
		if back.Primary(key) != r4.Primary(key) {
			t.Fatalf("key %d: leave did not restore the pre-join owner", key)
		}
	}

	if _, err := r4.WithoutNode("ghost"); err == nil {
		t.Error("removing an unknown node should error")
	}
}

// Primary returns the node that owns the key: the owner of the first
// virtual node at or clockwise of the key's position.
func (r *Ring) Primary(key uint32) string {
	return r.nodes[r.points[r.start(key)].node]
}
