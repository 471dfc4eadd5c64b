package rebalance

import (
	"testing"

	"proximity/internal/core"
	"proximity/internal/shard"
	"proximity/internal/vec"
)

const testDim = 32

// skewedCache builds a sharded FLAT cache filled with clustered keys
// under a deliberately coarse signature, auditioning a few construction
// seeds and keeping the most imbalanced — so the target has real skew to
// fix.
func skewedCache(t *testing.T) *shard.ShardedCache {
	t.Helper()
	newCache := func(seed uint64) *shard.ShardedCache {
		c, err := shard.New(testDim, shard.Options{
			Shards:        4,
			Seed:          seed,
			SignatureBits: 4,
			New: func(int) (core.Cache, error) {
				return core.NewFlat(testDim, core.Options{Capacity: 256, Tolerance: 0.5})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fill := func(c *shard.ShardedCache) {
		rng := vec.NewRand(7)
		for cl := 0; cl < 8; cl++ {
			center := vec.RandomGaussian(rng, testDim)
			for m := 0; m < 16; m++ {
				q := vec.Clone(center)
				jitter := vec.RandomGaussian(rng, testDim)
				for d := range q {
					q[d] += 0.1 * jitter[d]
				}
				c.Put(q, []int{cl})
			}
		}
	}
	best := newCache(1)
	fill(best)
	worst := best.Report().Imbalance
	for seed := uint64(2); seed < 10; seed++ {
		c := newCache(seed)
		fill(c)
		if imb := c.Report().Imbalance; imb > worst {
			best, worst = c, imb
		}
	}
	return best
}

func TestNewShardTargetValidation(t *testing.T) {
	if _, err := NewShardTarget(nil, ShardTargetOptions{}); err == nil {
		t.Error("nil cache should fail")
	}
}

// TestShardTargetImprovesSkew: the actuator auditions candidate draws
// and the committed migration lowers the measured imbalance.
func TestShardTargetImprovesSkew(t *testing.T) {
	cache := skewedCache(t)
	before := cache.Report().Imbalance
	target, err := NewShardTarget(cache, ShardTargetOptions{Candidates: 16})
	if err != nil {
		t.Fatal(err)
	}
	if s := target.Sample(); s.Imbalance != before || s.Entries != cache.Len() {
		t.Errorf("Sample = %+v, want imbalance %v entries %d", s, before, cache.Len())
	}
	out, err := target.Rebalance(target.Sample())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Acted {
		t.Fatalf("declined on a skewed cache: %s", out.Detail)
	}
	if out.After >= out.Before {
		t.Errorf("migration did not improve imbalance: %v -> %v", out.Before, out.After)
	}
	if got := cache.Report().Imbalance; got != out.After {
		t.Errorf("reported imbalance %v != outcome %v", got, out.After)
	}
	if target.Cache() != cache {
		t.Error("Cache() accessor mismatch")
	}
}

// TestShardTargetDeclinesWhenNothingBetter: an exhausted candidate
// budget on an already-balanced cache declines instead of thrashing.
func TestShardTargetDeclinesWhenNothingBetter(t *testing.T) {
	c, err := shard.New(testDim, shard.Options{
		Shards: 4,
		Seed:   1,
		New: func(int) (core.Cache, error) {
			return core.NewFlat(testDim, core.Options{Capacity: 64, Tolerance: 0.5})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Empty cache: imbalance is pinned at the perfect 1.0, which no
	// draw can beat.
	target, err := NewShardTarget(c, ShardTargetOptions{Candidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := target.Rebalance(target.Sample())
	if err != nil {
		t.Fatal(err)
	}
	if out.Acted {
		t.Errorf("acted on a perfectly balanced cache: %+v", out)
	}
	if out.Detail == "" {
		t.Error("declined outcome should explain itself")
	}
	if c.Seed() != 1 {
		t.Error("declined action must not reseed")
	}
}
