package hnsw

import (
	"testing"

	"proximity/internal/vec"
)

// TestSearchEfClampsBelowK pins that ef < k is silently raised to k, so
// callers can tune ef without breaking the result count contract.
func TestSearchEfClampsBelowK(t *testing.T) {
	ix, _ := buildRandom(t, 300, 8, 21)
	q := vec.RandomGaussian(vec.NewRand(22), 8)
	res, err := ix.SearchEf(q, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Errorf("SearchEf(k=10, ef=1) returned %d results, want 10", len(res))
	}
}

// TestLevelDistribution checks the geometric layer assignment: most nodes
// live on layer 0 and the hierarchy thins out exponentially — the
// property that makes the greedy descent logarithmic.
func TestLevelDistribution(t *testing.T) {
	const n = 3000
	ix, err := New(4, vec.L2Distance, 23)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(24)
	for i := 0; i < n; i++ {
		if err := ix.Add(vec.RandomGaussian(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[int]int)
	for _, l := range ix.levels {
		counts[l]++
	}
	// With mult = 1/ln(16), P(level ≥ 1) = 1/16: expect roughly n/16
	// nodes above layer 0, within a generous band.
	above := n - counts[0]
	if above < n/40 || above > n/6 {
		t.Errorf("nodes above layer 0 = %d of %d, want ≈ n/16", above, n)
	}
	if ix.maxLevel < 1 {
		t.Errorf("maxLevel = %d, expected a hierarchy at n=%d", ix.maxLevel, n)
	}
	if ix.levels[ix.entry] != ix.maxLevel {
		t.Error("entry point must live on the top layer")
	}
}
