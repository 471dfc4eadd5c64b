package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestRebalanceABQuick runs the full static-vs-adaptive harness at CI
// size and checks the acceptance shape: the controller acted, the
// adaptive pass ends less imbalanced than the static pass, and not one
// query failed while the migration ran under live traffic.
func TestRebalanceABQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("integration harness skipped in -short mode")
	}
	s, err := NewSuite(Quick())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RebalanceAB(RebalanceABOptions{
		Shards:     4,
		MeasureFor: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Static == nil || res.Adaptive == nil {
		t.Fatal("both passes must report")
	}
	if res.Static.Errors != 0 || res.Adaptive.Errors != 0 {
		t.Fatalf("failed queries: static %d, adaptive %d (must be zero, especially during migration)",
			res.Static.Errors, res.Adaptive.Errors)
	}
	if res.Controller.Rebalances == 0 {
		t.Fatalf("controller never rebalanced: %+v", res.Controller)
	}
	if res.Controller.Failures != 0 {
		t.Fatalf("controller failures: %+v", res.Controller)
	}
	if sa, aa := res.StaticPressure.Imbalance, res.AdaptivePressure.Imbalance; aa >= sa {
		t.Errorf("adaptive imbalance %.2f not below static %.2f", aa, sa)
	}
	// LastActed, not LastOutcome: a later trigger that declines leaves
	// After == Before by construction.
	if acted := res.Controller.LastActed; acted.After >= acted.Before {
		t.Errorf("migration did not improve imbalance: %+v", acted)
	}
	out := res.Render()
	for _, want := range []string{
		"adaptive shard rebalancing A/B",
		"static (no controller)",
		"adaptive (controller on)",
		"imbalance",
		"failed queries during migration: 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
