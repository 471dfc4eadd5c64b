package cluster

import (
	"testing"
	"time"

	"proximity/internal/rebalance"
	"proximity/internal/server"
)

// TestBalancerShiftsWeightOffHotNode creates a guaranteed-lopsided load
// (traffic aimed straight at one node: the balancer reads each node's
// OWN lookup counters, so it sees skew however it arrives), then lets
// the balancer act: the hot node must end up with a lower ring weight
// than the cold one. Which node the ring would favor is irrelevant —
// and deliberately so, since loopback node IDs (ephemeral ports) make
// ring ownership nondeterministic across runs.
func TestBalancerShiftsWeightOffHotNode(t *testing.T) {
	c, nodes, _ := startCluster(t, 2, Options{Seed: 1})
	bal, err := NewBalancer(c)
	if err != nil {
		t.Fatal(err)
	}

	hot, cold := nodes[0].base, nodes[1].base
	direct := server.NewClient(hot)
	for _, q := range queries(40, 7) {
		if _, err := direct.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}

	sample := bal.Sample()
	// Loads 40 vs 0 over 2 nodes: max/mean = 2.
	if sample.Imbalance < 1.5 {
		t.Fatalf("sample imbalance %v, want ~2 for one-sided load", sample.Imbalance)
	}

	out, err := bal.Rebalance(sample)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Acted {
		t.Fatalf("balancer declined: %s", out.Detail)
	}
	if out.Before < 1.5 {
		t.Errorf("outcome Before = %v, want the observed skew", out.Before)
	}
	w := c.Ring().weightMap()
	if w[hot] >= w[cold] {
		t.Errorf("hot node %s weight %v not below cold node %s weight %v", hot, w[hot], cold, w[cold])
	}
	// The baseline reset: an immediate re-sample sees no new load.
	if s := bal.Sample(); s.Imbalance != 1 {
		t.Errorf("post-rebalance sample imbalance = %v, want 1 (deltas reset)", s.Imbalance)
	}
}

// TestBalancerAbsorbsCounterReset: a node whose cumulative counters
// drop below the baseline has restarted; its load signal must re-anchor
// to "since restart", not become a huge negative delta that a rebalance
// would convert into a near-maximal weight boost for a cold node.
func TestBalancerAbsorbsCounterReset(t *testing.T) {
	c, nodes, _ := startCluster(t, 2, Options{Seed: 1})
	bal, err := NewBalancer(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries(20, 13) {
		if _, _, err := c.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a restart: pretend the baseline was far above what the
	// node now reports.
	bal.mu.Lock()
	bal.baseline[nodes[0].base] = 1 << 40
	bal.mu.Unlock()

	for _, l := range bal.snapshot() {
		if l.delta < 0 {
			t.Fatalf("node %s delta %d went negative across a counter reset", l.node, l.delta)
		}
	}
	out, err := bal.Rebalance(bal.Sample())
	if err != nil {
		t.Fatal(err)
	}
	if out.Acted {
		for _, w := range c.Ring().weightMap() {
			if w > 4 {
				t.Fatalf("counter reset produced an extreme weight %v: %s", w, out.Detail)
			}
		}
	}
}

// TestBalancerDeclinesOnUnreachableNode: re-weighting on a partial load
// snapshot would punish whichever node failed to report, so the balancer
// must decline instead.
func TestBalancerDeclinesOnUnreachableNode(t *testing.T) {
	c, nodes, _ := startCluster(t, 2, Options{Seed: 1})
	bal, err := NewBalancer(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries(8, 9) {
		if _, _, err := c.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := nodes[0].stop(); err != nil {
		t.Fatal(err)
	}
	ring := c.Ring()
	out, err := bal.Rebalance(bal.Sample())
	if err != nil {
		t.Fatal(err)
	}
	if out.Acted {
		t.Error("balancer acted on an incomplete load snapshot")
	}
	if c.Ring() != ring {
		t.Error("declined action must not change the ring")
	}
}

// quietClock is a rebalance.Clock whose sampling timer never fires.
type quietClock struct{}

func (quietClock) Now() time.Time                       { return time.Now() }
func (quietClock) After(time.Duration) <-chan time.Time { return nil }

// TestClusterRebalanceOption: the Options.Rebalance wiring starts a
// controller that lives and dies with the client.
func TestClusterRebalanceOption(t *testing.T) {
	c, _, _ := startCluster(t, 2, Options{
		Seed: 1,
		Rebalance: &rebalance.Options{
			Threshold: 1.2,
			Clock:     quietClock{}, // policy loop stays quiet; we trigger manually
		},
	})
	ctrl := c.Controller()
	if ctrl == nil {
		t.Fatal("Options.Rebalance set but Controller() is nil")
	}
	for _, q := range queries(6, 11) {
		if _, _, err := c.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctrl.TriggerNow(); err != nil {
		t.Fatalf("manual trigger: %v", err)
	}
	if st := ctrl.Stats(); st.Triggers != 1 {
		t.Errorf("Triggers = %d, want 1", st.Triggers)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.TriggerNow(); err == nil {
		t.Error("controller should be closed with the client")
	}
}
