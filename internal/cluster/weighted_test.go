package cluster

import (
	"errors"
	"testing"
)

// TestWeightedArcShares: a node's share of the keyspace tracks its
// weight — the lever the balancer pulls.
func TestWeightedArcShares(t *testing.T) {
	ring, err := NewWeightedRing([]string{"a", "b"}, map[string]float64{"a": 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for key := uint32(0); key < 20000; key += 2 {
		counts[ring.Primary(key)]++
	}
	// Weight 4 vs 1 → expected 80/20 split; allow generous slack.
	if counts["a"] < 3*counts["b"] {
		t.Errorf("weight-4 node owns %d keys vs %d — share does not track weight", counts["a"], counts["b"])
	}
	if counts["b"] == 0 {
		t.Error("weight-1 node owns no keys; every member must keep at least one arc")
	}
	if got := ring.VNodesFor("a"); got != 4*DefaultVNodes {
		t.Errorf("VNodesFor(a) = %d, want %d", got, 4*DefaultVNodes)
	}
	if got := ring.VNodesFor("missing"); got != 0 {
		t.Errorf("VNodesFor(missing) = %d, want 0", got)
	}
}

// TestWithWeightsPreservesMembership: re-weighting never changes who is
// in the ring, merges over current weights, and validates bounds.
func TestWithWeights(t *testing.T) {
	ring, err := NewRing([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := ring.WithWeights(map[string]float64{"a": 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rw.Nodes()), 3; got != want {
		t.Fatalf("membership changed: %d nodes, want %d", got, want)
	}
	if w, _ := rw.Weight("a"); w != 2 {
		t.Errorf("Weight(a) = %v, want 2", w)
	}
	if w, _ := rw.Weight("b"); w != 1 {
		t.Errorf("Weight(b) = %v, want 1 (unnamed nodes keep their weight)", w)
	}
	// Weights survive membership changes.
	grown, err := rw.WithNode("d")
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := grown.Weight("a"); w != 2 {
		t.Errorf("WithNode dropped a's weight: %v", w)
	}
	shrunk, err := grown.WithoutNode("b")
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := shrunk.Weight("a"); w != 2 {
		t.Errorf("WithoutNode dropped a's weight: %v", w)
	}

	for _, bad := range []map[string]float64{
		{"nope": 1},             // unknown node
		{"a": 0},                // below MinWeight
		{"a": MaxWeight * 2},    // above MaxWeight
		{"a": MinWeight / 1e64}, // effectively zero
	} {
		if _, err := ring.WithWeights(bad); err == nil {
			t.Errorf("WithWeights(%v) should fail", bad)
		}
	}
}

// TestWithoutNodeLastNode is the regression test for the last-node edge
// case: removal must fail with the typed ErrLastNode, never hand back a
// ring whose Primary/Lookup would panic on zero points.
func TestWithoutNodeLastNode(t *testing.T) {
	ring, err := NewRing([]string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ring.WithoutNode("only")
	if !errors.Is(err, ErrLastNode) {
		t.Fatalf("WithoutNode(last) error = %v, want ErrLastNode", err)
	}
	if out != nil {
		t.Fatal("WithoutNode(last) must not return a ring")
	}
	// The original ring is untouched and still serves.
	if got := ring.Primary(12345); got != "only" {
		t.Errorf("Primary = %q after failed removal", got)
	}
	if _, err := NewRing(nil); !errors.Is(err, ErrEmptyRing) {
		t.Errorf("NewRing(empty) error = %v, want ErrEmptyRing", err)
	}
}

// TestClientRebalance: a re-weighting swaps routing live, and a failed
// one leaves the ring as it was.
func TestClientRebalance(t *testing.T) {
	c, err := New(8, []string{"http://a", "http://b"}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Rebalance(map[string]float64{"http://a": 0.25}); err != nil {
		t.Fatal(err)
	}
	if w := c.Ring().weightMap()["http://a"]; w != 0.25 {
		t.Errorf("weight after Rebalance = %v, want 0.25", w)
	}
	ring := c.Ring()
	if err := c.Rebalance(map[string]float64{"http://nope": 1}); err == nil {
		t.Error("rebalancing an unknown node should fail")
	}
	if c.Ring() != ring {
		t.Error("a failed rebalance replaced the ring")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(map[string]float64{"http://a": 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Rebalance on closed client = %v, want ErrClosed", err)
	}
}
