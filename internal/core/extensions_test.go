package core

import (
	"testing"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// --- multi-probe LSH ----------------------------------------------------

func TestLSHProbesValidation(t *testing.T) {
	if _, err := NewLSH(8, LSHOptions{Bits: 4, Tolerance: 1, Probes: -1}); err == nil {
		t.Error("negative probes should error")
	}
	c := mustLSH(t, 8, LSHOptions{Bits: 4, Tolerance: 1})
	if c.probes != 1 {
		t.Errorf("default probes = %d, want 1", c.probes)
	}
	capped := mustLSH(t, 8, LSHOptions{Bits: 4, Tolerance: 1, Probes: 100})
	if capped.probes != 5 { // base bucket + one flip per bit
		t.Errorf("probes should cap at Bits+1, got %d", capped.probes)
	}
}

// Multi-probe must recover hits that single-probe loses to hyperplane
// boundaries, and never lose hits single-probe finds.
func TestLSHMultiProbeRecoversBoundaryHits(t *testing.T) {
	const (
		dim    = 64
		bits   = 8
		tol    = 1.0
		pairs  = 300
		radius = 0.08 // relative perturbation: some pairs straddle a plane
	)
	build := func(probes int) *LSHCache {
		return mustLSH(t, dim, LSHOptions{
			Bits: bits, Tolerance: tol, Seed: 42, Probes: probes,
		})
	}
	single, multi := build(1), build(bits+1)

	rng := vec.NewRand(7)
	singleHits, multiHits := 0, 0
	for i := 0; i < pairs; i++ {
		base := vec.Scale(vec.RandomUnit(rng, dim), 10)
		probe := vec.GaussianAround(rng, base, radius)
		single.Put(base, []int{i})
		multi.Put(base, []int{i})
		if _, ok := single.Get(probe); ok {
			singleHits++
		}
		if _, ok := multi.Get(probe); ok {
			multiHits++
		}
	}
	if multiHits <= singleHits {
		t.Errorf("multi-probe should recover boundary hits: single=%d multi=%d", singleHits, multiHits)
	}
	if multiHits < pairs/2 {
		t.Errorf("multi-probe hit count suspiciously low: %d/%d", multiHits, pairs)
	}
}

// A multi-probe hit must return the same documents a flat cache over the
// same inserts would (the closest admissible key wins globally).
func TestLSHMultiProbeMatchesFlatSemantics(t *testing.T) {
	const dim = 16
	multi := mustLSH(t, dim, LSHOptions{Bits: 4, Tolerance: 2, Seed: 9, Probes: 5})
	flat := mustFlat(t, dim, Options{Capacity: 1024, Tolerance: 2})
	rng := vec.NewRand(11)
	for i := 0; i < 200; i++ {
		v := vec.RandomGaussian(rng, dim)
		multi.Put(v, []int{i})
		flat.Put(v, []int{i})
	}
	agreements, multiHitCount := 0, 0
	for i := 0; i < 200; i++ {
		q := vec.RandomGaussian(rng, dim)
		mDocs, mOK := multi.Get(q)
		fDocs, fOK := flat.Get(q)
		if !mOK {
			continue
		}
		multiHitCount++
		if !fOK {
			t.Fatalf("multi-probe hit where flat cache missed")
		}
		if mDocs[0] == fDocs[0] {
			agreements++
		}
	}
	if multiHitCount == 0 {
		t.Skip("no hits at this seed; adjust tolerance")
	}
	// Multi-probe scans only Probes buckets, so it may match a
	// different (slightly farther) entry than the global closest; most
	// hits should still agree.
	if agreements*2 < multiHitCount {
		t.Errorf("multi-probe agreed with flat on only %d/%d hits", agreements, multiHitCount)
	}
}

// --- per-entry (dynamic) tolerance ---------------------------------------

func TestPutWithToleranceFlat(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 4, Tolerance: 5}) // loose global τ
	c.PutWithTolerance(vec.Vector{0}, []int{100}, 0.5)      // tight line
	c.PutWithTolerance(vec.Vector{10}, []int{200}, 4)       // loose line

	// Within the tight line's own tolerance: hit.
	if docs, ok := c.Get(vec.Vector{0.4}); !ok || docs[0] != 100 {
		t.Errorf("query within per-line tolerance should hit: %v %v", docs, ok)
	}
	// Outside the tight line's tolerance but well inside the global τ:
	// miss — the per-line threshold governs.
	if _, ok := c.Get(vec.Vector{2}); ok {
		t.Error("query outside the line's own tolerance must miss")
	}
	// The loose line serves a distant query.
	if docs, ok := c.Get(vec.Vector{7}); !ok || docs[0] != 200 {
		t.Errorf("loose line should serve: %v %v", docs, ok)
	}
}

func TestClosestAdmissibleWins(t *testing.T) {
	// The closest entry has a tolerance excluding the query; a farther
	// admissible entry must serve it instead.
	c := mustFlat(t, 1, Options{Capacity: 4, Tolerance: 10})
	c.PutWithTolerance(vec.Vector{1}, []int{1}, 0.1) // closest, inadmissible
	c.PutWithTolerance(vec.Vector{3}, []int{2}, 5)   // farther, admissible
	docs, ok := c.Get(vec.Vector{0})
	if !ok || docs[0] != 2 {
		t.Errorf("Get = %v %v, want the admissible entry's docs [2]", docs, ok)
	}
}

func TestPutWithToleranceIgnoresNegative(t *testing.T) {
	c := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 1})
	c.PutWithTolerance(vec.Vector{0}, []int{1}, -1)
	if c.Len() != 0 {
		t.Error("negative tolerance insert should be ignored")
	}
}

func TestPutWithToleranceLSH(t *testing.T) {
	c := mustLSH(t, 16, LSHOptions{Bits: 4, Tolerance: 5, Seed: 13})
	rng := vec.NewRand(14)
	base := vec.Scale(vec.RandomUnit(rng, 16), 10)
	c.PutWithTolerance(base, []int{7}, 0.2)
	near := vec.GaussianAround(rng, base, 0.01) // well within 0.2
	if docs, ok := c.Get(near); !ok || docs[0] != 7 {
		t.Errorf("near query should hit the tight line: %v %v", docs, ok)
	}
	far := vec.GaussianAround(rng, base, 0.3) // ~1.2 away, inside global τ=5
	if _, ok := c.Get(far); ok {
		t.Error("query outside the line's tolerance must miss despite the loose global τ")
	}
}

// --- dynamic tolerance through the retriever ------------------------------

func TestRetrieverDynamicTolerance(t *testing.T) {
	// 1-D corpus: a dense cluster near 0 (neighbors packed) and a
	// sparse region near 100 (neighbors far apart).
	db, err := vectordb.NewFlatIndex(1, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	dense := []vec.Vector{{0}, {0.1}, {0.2}, {0.3}}
	sparse := []vec.Vector{{100}, {104}, {108}, {112}}
	if err := db.Add(append(dense, sparse...)...); err != nil {
		t.Fatal(err)
	}
	cache := mustFlat(t, 1, Options{Capacity: 8, Tolerance: 0 /* unused for dynamic puts */})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{
		K:                2,
		DynamicTolerance: 1.0, // tol = distance to the 2nd neighbor
	})
	if err != nil {
		t.Fatal(err)
	}

	// Prime both regions.
	if _, err := r.Retrieve(vec.Vector{0}); err != nil {
		t.Fatal(err) // 2nd neighbor at 0.1 → tol 0.1
	}
	if _, err := r.Retrieve(vec.Vector{100}); err != nil {
		t.Fatal(err) // 2nd neighbor at 104 → tol 4
	}

	// Offset 2: inside the sparse line's tolerance, far outside the
	// dense line's.
	denseProbe, err := r.Retrieve(vec.Vector{2})
	if err != nil {
		t.Fatal(err)
	}
	if denseProbe.Hit {
		t.Error("dense-region probe at offset 2 should miss (line tolerance ≈ 0.1)")
	}
	sparseProbe, err := r.Retrieve(vec.Vector{102})
	if err != nil {
		t.Fatal(err)
	}
	if !sparseProbe.Hit {
		t.Error("sparse-region probe at offset 2 should hit (line tolerance ≈ 4)")
	}
}

func TestDynamicToleranceValues(t *testing.T) {
	r := &CachedRetriever{opts: RetrieverOptions{K: 3, DynamicTolerance: 0.5}}
	scored := []vec.Scored{{ID: 0, Dist: 1}, {ID: 1, Dist: 2}, {ID: 2, Dist: 4}, {ID: 3, Dist: 8}}
	if got := r.dynamicTolerance(scored); got != 2 {
		t.Errorf("dynamicTolerance = %v, want 0.5×4 = 2", got)
	}
	// Fewer results than K: use the farthest.
	if got := r.dynamicTolerance(scored[:2]); got != 1 {
		t.Errorf("dynamicTolerance short = %v, want 0.5×2 = 1", got)
	}
	if got := r.dynamicTolerance(nil); got != 0 {
		t.Errorf("dynamicTolerance empty = %v, want 0", got)
	}
}
