package experiments

import (
	"strings"
	"testing"

	"proximity/internal/stats"
)

// TestConfigValidate exercises the config guard rails.
func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("Default config invalid: %v", err)
	}
	if err := Quick().Validate(); err != nil {
		t.Errorf("Quick config invalid: %v", err)
	}
	bad := Quick()
	bad.Dim = 0
	if err := bad.Validate(); err == nil {
		t.Error("Dim=0 should fail validation")
	}
	bad = Quick()
	bad.ZipfTotal = 1
	if err := bad.Validate(); err == nil {
		t.Error("ZipfTotal below question count should fail validation")
	}
	if _, err := NewSuite(bad); err == nil {
		t.Error("NewSuite must reject invalid configs")
	}
}

// checkFig10Shape asserts Fig. 10's shape on one per-lookup cost, in
// unit, of a FLAT and an LSH cache at each size.
func checkFig10Shape(t *testing.T, unit string, sizes []int, flat, lsh []float64) {
	t.Helper()
	last := len(sizes) - 1
	if flat[last] < 5*flat[0] {
		t.Errorf("FLAT lookup should scale with n: %.2f %s at n=%d vs %.2f %s at n=%d",
			flat[0], unit, sizes[0], flat[last], unit, sizes[last])
	}
	if lsh[last] > 20*lsh[0]+5 {
		t.Errorf("LSH lookup should stay near-constant: %.2f → %.2f %s", lsh[0], lsh[last], unit)
	}
	if flat[last] < 2*lsh[last] {
		t.Errorf("at n=%d FLAT (%.2f %s) should dwarf LSH (%.2f %s)", sizes[last], flat[last], unit, lsh[last], unit)
	}
}

// TestSuiteShapes runs every figure harness on the Quick configuration
// and asserts the qualitative shapes the paper reports. One suite is
// shared so benchmarks build once.
func TestSuiteShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration suite skipped in -short mode")
	}
	s, err := NewSuite(Quick())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("Fig2", func(t *testing.T) {
		r, err := s.Fig2QuerySkew()
		if err != nil {
			t.Fatal(err)
		}
		if r.Fit.Exponent < 0.3 || r.Fit.Exponent > 1.1 {
			t.Errorf("fitted exponent %.3f outside the Zipf regime around 0.627", r.Fit.Exponent)
		}
		if r.Fit.R2 < 0.7 {
			t.Errorf("R² = %.3f, power law should fit well", r.Fit.R2)
		}
		if len(r.RankFreq) == 0 || r.RankFreq[0][1] < r.RankFreq[len(r.RankFreq)-1][1] {
			t.Error("rank-frequency must be descending")
		}
		if !strings.Contains(r.Render(), "Zipf exponent") {
			t.Error("render output incomplete")
		}
	})

	t.Run("Fig3", func(t *testing.T) {
		r, err := s.Fig3EmbeddingClusters()
		if err != nil {
			t.Fatal(err)
		}
		if r.ClusterScore < 1.3 {
			t.Errorf("cluster score = %.2f; topic clusters should be visible (Fig. 3)", r.ClusterScore)
		}
		total := 0
		for _, row := range r.Grid {
			for _, c := range row {
				total += c
			}
		}
		if total != r.Points {
			t.Errorf("grid holds %d points, want %d", total, r.Points)
		}
		if r.OccupiedCells <= 1 {
			t.Error("projection collapsed to a point")
		}
		if !strings.Contains(r.Render(), "cluster score") {
			t.Error("render output incomplete")
		}
	})

	t.Run("Fig6MMLU", func(t *testing.T) {
		r, err := s.Fig6FlatGrid("mmlu")
		if err != nil {
			t.Fatal(err)
		}
		checkFig6Shapes(t, r, 2 /* τ=2 col */, 4 /* τ=10 col */)
		// MMLU accuracy stays near the baseline even at τ=10 (DPR
		// corpus passages are near-neutral).
		last := len(r.Taus) - 1
		for ci := range r.Caps {
			if diff := r.NoCacheAccuracy - r.Accuracy[ci][last]; diff > 0.15 {
				t.Errorf("mmlu c=%d τ=10 accuracy dropped %.3f below baseline; expected mild", r.Caps[ci], diff)
			}
		}
	})

	t.Run("Fig6MedRAG", func(t *testing.T) {
		r, err := s.Fig6FlatGrid("medrag")
		if err != nil {
			t.Fatal(err)
		}
		checkFig6Shapes(t, r, 1 /* τ=5 col */, 2 /* τ=10 col */)
		// The MedRAG signature: τ=10 collapses accuracy below the
		// no-RAG floor while τ=5 stays near the baseline (Fig. 6a).
		bigCap := len(r.Caps) - 1
		tau5, tau10 := 1, 2
		if r.Accuracy[bigCap][tau10] >= r.Accuracy[bigCap][tau5]-0.1 {
			t.Errorf("medrag accuracy should collapse at τ=10: τ=5 %.3f vs τ=10 %.3f",
				r.Accuracy[bigCap][tau5], r.Accuracy[bigCap][tau10])
		}
		if r.HitRate[bigCap][tau10] < 0.9 {
			t.Errorf("medrag τ=10 hit rate %.3f, paper reports ≈98%%", r.HitRate[bigCap][tau10])
		}
		if !strings.Contains(r.Render(), "Figure 6a") {
			t.Error("render output incomplete")
		}
	})

	t.Run("Fig7", func(t *testing.T) {
		r, err := s.Fig7ZipfPolicies()
		if err != nil {
			t.Fatal(err)
		}
		// Recall ≈ 1 at low tolerance for every policy; degraded at
		// τ=10 for FLAT (Fig. 7b).
		for pi, name := range r.Policies {
			if r.Recall[pi][0] < 0.9 {
				t.Errorf("%s recall at τ=2.5 = %.3f, want ≈ 1", name, r.Recall[pi][0])
			}
		}
		flatIdx, lshIdx := indexOf(r.Policies, "lru"), indexOf(r.Policies, "lsh-lru")
		last := len(r.Taus) - 1
		if r.Recall[flatIdx][last] > r.Recall[flatIdx][0] {
			t.Error("FLAT recall should degrade as τ grows")
		}
		// LSH robustness at τ=10 (§4.3.1): bucket containment keeps
		// recall/accuracy above FLAT.
		if r.Recall[lshIdx][last]+0.02 < r.Recall[flatIdx][last] {
			t.Errorf("LSH recall at τ=10 (%.3f) should not be below FLAT (%.3f)",
				r.Recall[lshIdx][last], r.Recall[flatIdx][last])
		}
		// Hit rate grows with τ for every L (Fig. 7c).
		for bi := range r.Bits {
			if r.HitRate[bi][last] <= r.HitRate[bi][0] {
				t.Errorf("L=%d hit rate should grow with τ: %.3f vs %.3f",
					r.Bits[bi], r.HitRate[bi][0], r.HitRate[bi][last])
			}
		}
		// Latency falls as hit rate rises (Fig. 7d).
		for bi := range r.Bits {
			if r.Latency[bi][last] >= r.Latency[bi][0] {
				t.Errorf("L=%d latency should fall with τ", r.Bits[bi])
			}
		}
		if !strings.Contains(r.Render(), "Figure 7a") {
			t.Error("render output incomplete")
		}
	})

	t.Run("Fig8", func(t *testing.T) {
		r, err := s.Fig8BucketSize()
		if err != nil {
			t.Fatal(err)
		}
		// Hit rate improves from b=5 to b=20 and then plateaus; the
		// accuracy curve stays flat (Fig. 8).
		if r.HitRate[3] <= r.HitRate[0] {
			t.Errorf("hit rate should grow b=5→20: %.3f vs %.3f", r.HitRate[0], r.HitRate[3])
		}
		if gain := r.HitRate[len(r.HitRate)-1] - r.HitRate[3]; gain > 0.10 {
			t.Errorf("hit rate gain beyond b=20 = %.3f, expected a plateau", gain)
		}
		for i := 1; i < len(r.Accuracy); i++ {
			if diff := r.Accuracy[i] - r.Accuracy[0]; diff > 0.1 || diff < -0.1 {
				t.Errorf("accuracy should be stable across b, drifted %.3f at b=%d", diff, r.Buckets[i])
			}
		}
		if !strings.Contains(r.Render(), "Figure 8") {
			t.Error("render output incomplete")
		}
	})

	t.Run("Fig9", func(t *testing.T) {
		r, err := s.Fig9Occupancy()
		if err != nil {
			t.Fatal(err)
		}
		// Relative occupancy falls as L grows (adaptive sparsity).
		for ti := range r.Taus {
			first, last := r.Relative[0][ti], r.Relative[len(r.Bits)-1][ti]
			if last >= first {
				t.Errorf("τ=%v: relative occupancy should fall with L: L=%d %.3f vs L=%d %.3f",
					r.Taus[ti], r.Bits[0], first, r.Bits[len(r.Bits)-1], last)
			}
		}
		// Occupancy falls (weakly) as τ grows: more hits, fewer inserts.
		for bi := range r.Bits {
			if r.Absolute[bi][len(r.Taus)-1] > r.Absolute[bi][0]*1.1 {
				t.Errorf("L=%d: absolute occupancy should not grow with τ", r.Bits[bi])
			}
		}
		if !strings.Contains(r.Render(), "Figure 9a") {
			t.Error("render output incomplete")
		}
	})

	t.Run("Fig10", func(t *testing.T) {
		r, err := s.Fig10LookupScaling()
		if err != nil {
			t.Fatal(err)
		}
		// FLAT lookup grows strongly with n; LSH stays within a small
		// factor across two orders of magnitude; at the largest size FLAT
		// is clearly dearer than LSH. The operation counts show it in
		// every build.
		checkFig10Shape(t, "ops/lookup", r.Sizes, r.FlatOps, r.LSHOps)
		// The race detector slows LSH's Go hashing but not FLAT's
		// assembly scan, so the wall-clock shape holds only without it.
		if !raceEnabled {
			checkFig10Shape(t, "µs", r.Sizes, r.FlatUS, r.LSHUS)
		}
		if !strings.Contains(r.Render(), "Figure 10") {
			t.Error("render output incomplete")
		}
	})

	t.Run("Fig11", func(t *testing.T) {
		r, err := s.Fig11LookupParams()
		if err != nil {
			t.Fatal(err)
		}
		// FLAT lookup grows with capacity at the lowest τ, where the
		// cache is guaranteed to saturate (higher τ rows may not fill
		// small configs; the full-scale bench shows the whole grid).
		small, large := r.FlatUS[0][0], r.FlatUS[len(r.Caps)-1][0]
		if large < 1.5*small {
			t.Errorf("τ=%v: FLAT lookup should grow with c (%.2f → %.2f µs)",
				r.Taus[0], small, large)
		}
		// LSH lookup stays within a small band across L and τ. The
		// median damps scheduler outliers (wall-clock measurements
		// share the machine with other work).
		var all []float64
		for bi := range r.Bits {
			all = append(all, r.LSHUS[bi]...)
		}
		med, err := stats.Percentile(all, 50)
		if err != nil {
			t.Fatal(err)
		}
		minV := all[0]
		for _, v := range all {
			if v < minV {
				minV = v
			}
		}
		if med > 10*minV+5 {
			t.Errorf("LSH lookup should be stable, min %.2f µs vs median %.2f µs", minV, med)
		}
		if !strings.Contains(r.Render(), "Figure 11a") {
			t.Error("render output incomplete")
		}
	})

	t.Run("Fig12", func(t *testing.T) {
		r, err := s.Fig12TripClick()
		if err != nil {
			t.Fatal(err)
		}
		// Recall near-perfect at τ=1 and non-increasing in τ.
		if r.Recall[0] < 0.9 {
			t.Errorf("recall at τ=1 = %.3f, paper reports 99.4%%", r.Recall[0])
		}
		if r.Recall[len(r.Recall)-1] > r.Recall[0] {
			t.Error("recall should not grow with τ")
		}
		// Hit rate substantial and stable-ish across τ.
		for i, h := range r.HitRate {
			if h < 0.2 || h > 0.99 {
				t.Errorf("hit rate at τ=%v = %.3f, expected a substantial stable rate", r.Taus[i], h)
			}
		}
		if !strings.Contains(r.Render(), "Figure 12") {
			t.Error("render output incomplete")
		}
	})

	t.Run("Ablation", func(t *testing.T) {
		r, err := s.ExtensionsAblation()
		if err != nil {
			t.Fatal(err)
		}
		byName := make(map[string]AblationRow, len(r.Rows))
		for _, row := range r.Rows {
			byName[row.Name] = row
		}
		single := byName["lsh ρ=4 single-probe"]
		multi := byName["lsh ρ=4 multi-probe"]
		noRerank := byName["lsh ρ=1 single-probe"]
		dynamic := byName["lsh ρ=4 dynamic-τ"]

		// Multi-probe recovers boundary hits.
		if multi.HitRate < single.HitRate {
			t.Errorf("multi-probe hit rate %.3f below single-probe %.3f", multi.HitRate, single.HitRate)
		}
		// Re-ranking protects recall: ρ=4 recall ≥ ρ=1 recall.
		if single.Recall+0.02 < noRerank.Recall {
			t.Errorf("ρ=4 recall %.3f unexpectedly below ρ=1 %.3f", single.Recall, noRerank.Recall)
		}
		// Dynamic tolerance keeps recall high (it only loosens where
		// the retrieved neighborhood was sparse).
		if dynamic.Recall < 0.8 {
			t.Errorf("dynamic tolerance recall = %.3f, want high", dynamic.Recall)
		}
		if dynamic.HitRate < 0.1 {
			t.Errorf("dynamic tolerance hit rate = %.3f, lines never matched", dynamic.HitRate)
		}
		if !strings.Contains(r.Render(), "ablation") {
			t.Error("render output incomplete")
		}
	})

	t.Run("OpCount", func(t *testing.T) {
		r, err := s.OpCountAblation()
		if err != nil {
			t.Fatal(err)
		}
		if r.Reduction < 50 {
			t.Errorf("op reduction = %.0fx, §3.2 predicts ≈300x at d=768 (≥50x at any dim)", r.Reduction)
		}
		if r.FlatOps < float64(r.Capacity)*float64(r.Dim)*0.9 {
			t.Errorf("FLAT ops/lookup = %.0f, want ≈ c·d = %d", r.FlatOps, r.Capacity*r.Dim)
		}
		if !strings.Contains(r.Render(), "reduction") {
			t.Error("render output incomplete")
		}
	})
}

// checkFig6Shapes asserts the monotone trends shared by both Fig. 6
// panels: hit rate grows with τ and with c; latency falls with hit rate.
func checkFig6Shapes(t *testing.T, r *Fig6Result, midTau, highTau int) {
	t.Helper()
	lastCap := len(r.Caps) - 1
	// Hit rate grows with τ at the largest capacity.
	if r.HitRate[lastCap][highTau] <= r.HitRate[lastCap][0] {
		t.Errorf("hit rate should grow with τ: %.3f (τ min) vs %.3f (τ max)",
			r.HitRate[lastCap][0], r.HitRate[lastCap][highTau])
	}
	// Hit rate grows with capacity at a mid tolerance.
	if r.HitRate[lastCap][midTau] < r.HitRate[0][midTau] {
		t.Errorf("hit rate should grow with c: c=%d %.3f vs c=%d %.3f",
			r.Caps[0], r.HitRate[0][midTau], r.Caps[lastCap], r.HitRate[lastCap][midTau])
	}
	// Latency at high τ (high hit rate) is below the no-cache baseline.
	if r.Latency[lastCap][highTau] >= r.NoCacheLatency {
		t.Errorf("caching should cut retrieval latency: %v vs baseline %v",
			r.Latency[lastCap][highTau], r.NoCacheLatency)
	}
	// Latency decreases as τ grows.
	if r.Latency[lastCap][highTau] >= r.Latency[lastCap][0] {
		t.Error("latency should fall as τ (and hit rate) grow")
	}
}

func indexOf(xs []string, want string) int {
	for i, x := range xs {
		if x == want {
			return i
		}
	}
	return -1
}
