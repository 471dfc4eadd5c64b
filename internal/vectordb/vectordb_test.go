package vectordb

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"proximity/internal/vec"
)

func TestNewFlatIndexValidation(t *testing.T) {
	if _, err := NewFlatIndex(0, vec.L2Distance); err == nil {
		t.Error("dim 0 should error")
	}
	if _, err := NewFlatIndex(-4, vec.L2Distance); err == nil {
		t.Error("negative dim should error")
	}
}

func TestFlatIndexAddValidation(t *testing.T) {
	f, err := NewFlatIndex(3, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(vec.Vector{1, 2}); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Errorf("Add wrong dim error = %v", err)
	}
	if f.Len() != 0 {
		t.Error("failed Add must not insert")
	}
	if err := f.Add(vec.Vector{1, 2, 3}, vec.Vector{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 2 {
		t.Errorf("Len = %d", f.Len())
	}
	if f.Dim() != 3 || f.metric != vec.L2Distance {
		t.Error("Dim/Metric accessors wrong")
	}
}

func TestFlatIndexSearch(t *testing.T) {
	f, _ := NewFlatIndex(2, vec.L2Distance)
	if _, err := f.Search(vec.Vector{0, 0}, 1); !errors.Is(err, ErrEmptyIndex) {
		t.Errorf("empty index error = %v", err)
	}
	vectors := []vec.Vector{{0, 0}, {1, 0}, {5, 5}, {0.5, 0}}
	if err := f.Add(vectors...); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Search(vec.Vector{0, 0}, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := f.Search(vec.Vector{0}, 1); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Errorf("dim mismatch error = %v", err)
	}
	res, err := f.Search(vec.Vector{0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 0 || res[1].ID != 3 {
		t.Errorf("Search = %+v, want ids [0 3]", res)
	}
	// k beyond index size clamps.
	res, err = f.Search(vec.Vector{0, 0}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Errorf("clamped search returned %d results", len(res))
	}
}

func TestFlatIndexVector(t *testing.T) {
	f, _ := NewFlatIndex(2, vec.L2Distance)
	if err := f.Add(vec.Vector{1, 2}); err != nil {
		t.Fatal(err)
	}
	v, err := f.Vector(0)
	if err != nil || !slices.Equal(v, vec.Vector{1, 2}) {
		t.Errorf("Vector(0) = %v, %v", v, err)
	}
	if _, err := f.Vector(1); err == nil {
		t.Error("out-of-range Vector should error")
	}
	if _, err := f.Vector(-1); err == nil {
		t.Error("negative Vector should error")
	}
}

func TestRetrieveDocumentIndices(t *testing.T) {
	f, _ := NewFlatIndex(1, vec.L2Distance)
	if err := f.Add(vec.Vector{10}, vec.Vector{1}, vec.Vector{5}); err != nil {
		t.Fatal(err)
	}
	ids, err := RetrieveDocumentIndices(f, vec.Vector{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("ids = %v, want [1 2]", ids)
	}
	if _, err := RetrieveDocumentIndices(f, vec.Vector{0}, 0); err == nil {
		t.Error("bad k should propagate")
	}
}

// Property: flat search results are sorted ascending and exactly match a
// reference scan for random data.
func TestFlatSearchIsExact(t *testing.T) {
	f := func(seed uint64) bool {
		r := vec.NewRand(seed)
		dim := 2 + int(r.Uint64()%6)
		n := 3 + int(r.Uint64()%40)
		k := 1 + int(r.Uint64()%8)
		idx, err := NewFlatIndex(dim, vec.L2Distance)
		if err != nil {
			return false
		}
		vecs := make([]vec.Vector, n)
		for i := range vecs {
			vecs[i] = vec.RandomGaussian(r, dim)
		}
		if err := idx.Add(vecs...); err != nil {
			return false
		}
		q := vec.RandomGaussian(r, dim)
		got, err := idx.Search(q, k)
		if err != nil {
			return false
		}
		var top vec.TopKBuffer
		top.Reset(k)
		top.PushDistances(q, vecs, vec.L2)
		want := top.Result()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// bruteForce is the reference ranking: every distance finished with the
// plain kernel, sorted by (distance, ID), cut at k. It shares nothing
// with the scans under test but vec.L2.
func bruteForce(q vec.Vector, corpus []vec.Vector, k int) []vec.Scored {
	all := make([]vec.Scored, len(corpus))
	for id, v := range corpus {
		all[id] = vec.Scored{ID: id, Dist: vec.L2(q, v)}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	return all[:min(k, len(all))]
}

func sameRanking(a, b []vec.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Dist) != math.Float32bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// TestL2ScansMatchBruteForce holds every early-abandoning L2 scan —
// Search with its head-seeded bound and head skips, and an IVF index
// probing all of its cells — to the reference ranking: same
// IDs, same distance bits, same order. Dimensions run below, at and
// above vec.HeadLen; k runs from 1 past the corpus size, and one corpus
// has fewer rows than the seeding pass would keep. Corpora include
// duplicated vectors and one whose every vector is exactly as far from
// the query as every other (and whose heads tie too), where any abandon
// on "not strictly farther" or any lost (distance, ID) tie-break shows.
func TestL2ScansMatchBruteForce(t *testing.T) {
	rng := vec.NewRand(7)
	for _, dim := range []int{5, vec.HeadLen - 1, vec.HeadLen, vec.HeadLen + 1, 33, 100} {
		random := make([]vec.Vector, 60)
		for i := range random {
			random[i] = vec.RandomGaussian(rng, dim)
		}
		var duplicated, equidistant []vec.Vector
		for i := 0; i < 50; i++ {
			duplicated = append(duplicated, random[i%10])
		}
		for i := 0; i < dim; i++ { // ±3 along every axis: all 3 from the origin, exactly
			for _, r := range []float32{3, -3} {
				v := make(vec.Vector, dim)
				v[i] = r
				equidistant = append(equidistant, v)
			}
		}
		for name, corpus := range map[string][]vec.Vector{
			"random": random, "duplicated": duplicated, "equidistant": equidistant,
			"fewer than seedsPerK·k": random[:seedsPerK*4-1],
		} {
			n := len(corpus)
			flat, err := NewFlatFromVectors(corpus, vec.L2Distance)
			if err != nil {
				t.Fatal(err)
			}
			ivf, err := BuildIVF(corpus, vec.L2Distance, IVFConfig{NList: 4, NProbe: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			qs := []vec.Vector{vec.RandomGaussian(rng, dim), corpus[n/2], make(vec.Vector, dim)}
			for _, k := range []int{1, 4, n - 1, n, n + 3} {
				for qi, q := range qs {
					want := bruteForce(q, corpus, k)
					single, err := flat.Search(q, k)
					if err != nil {
						t.Fatal(err)
					}
					cells, err := ivf.SearchProbe(q, k, len(ivf.centroid))
					if err != nil {
						t.Fatal(err)
					}
					for scan, got := range map[string][]vec.Scored{
						"Search": single, "IVF, all cells": cells,
					} {
						if !sameRanking(got, want) {
							t.Fatalf("dim %d, %s corpus, k %d, query %d: %s\n got %v\nwant %v",
								dim, name, k, qi, scan, got, want)
						}
					}
				}
			}
		}
	}
}

func TestFixedLatency(t *testing.T) {
	m := FixedLatency(50 * time.Millisecond)
	if m.Lookup() != 50*time.Millisecond {
		t.Error("FixedLatency should return its value")
	}
}

func TestJitteredLatencyValidation(t *testing.T) {
	if _, err := NewJitteredLatency(0, 0.1, 1); err == nil {
		t.Error("zero mean should error")
	}
	if _, err := NewJitteredLatency(time.Second, -0.1, 1); err == nil {
		t.Error("negative spread should error")
	}
	if _, err := NewJitteredLatency(time.Second, 1, 1); err == nil {
		t.Error("spread = 1 should error")
	}
}

func TestJitteredLatencyBoundsAndDeterminism(t *testing.T) {
	mk := func() LatencyModel {
		m, err := NewJitteredLatency(100*time.Millisecond, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		la, lb := a.Lookup(), b.Lookup()
		if la != lb {
			t.Fatal("same seed must produce the same latency sequence")
		}
		if la < 90*time.Millisecond || la > 110*time.Millisecond {
			t.Fatalf("latency %v outside ±10%% of mean", la)
		}
	}
}

func TestPresetLatencies(t *testing.T) {
	if got := WikiDPRHNSWLatency(1).Lookup(); got < 80*time.Millisecond || got > 110*time.Millisecond {
		t.Errorf("wiki_dpr preset = %v", got)
	}
	if got := PubMedFlatLatency(1).Lookup(); got < 4*time.Second || got > 5500*time.Millisecond {
		t.Errorf("pubmed preset = %v", got)
	}
}

func TestInstrumented(t *testing.T) {
	f, _ := NewFlatIndex(1, vec.L2Distance)
	if err := f.Add(vec.Vector{0}, vec.Vector{1}); err != nil {
		t.Fatal(err)
	}
	ins := NewInstrumented(f, FixedLatency(time.Millisecond))
	if ins.Dim() != 1 || ins.Len() != 2 {
		t.Error("Dim/Len should delegate")
	}
	for i := 0; i < 3; i++ {
		if _, err := ins.Search(vec.Vector{0}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if ins.Calls() != 3 {
		t.Errorf("Calls = %d", ins.Calls())
	}
	if ins.SimulatedTime() != 3*time.Millisecond {
		t.Errorf("SimulatedTime = %v", ins.SimulatedTime())
	}
	if ins.LastLookupTime() != time.Millisecond {
		t.Errorf("LastLookupTime = %v", ins.LastLookupTime())
	}
	ins.Reset()
	if ins.Calls() != 0 || ins.SimulatedTime() != 0 || ins.LastLookupTime() != 0 {
		t.Error("Reset should zero counters")
	}
	if ins.Unwrap() != DB(f) {
		t.Error("Unwrap should return the wrapped DB")
	}
}

func TestInstrumentedErrorsDoNotCount(t *testing.T) {
	f, _ := NewFlatIndex(1, vec.L2Distance)
	ins := NewInstrumented(f, FixedLatency(time.Millisecond))
	if _, err := ins.Search(vec.Vector{0}, 1); err == nil {
		t.Fatal("expected empty-index error")
	}
	if ins.Calls() != 0 || ins.SimulatedTime() != 0 {
		t.Error("failed lookups must not accrue calls or simulated time")
	}
}

func TestInstrumentedNilModel(t *testing.T) {
	f, _ := NewFlatIndex(1, vec.L2Distance)
	if err := f.Add(vec.Vector{0}); err != nil {
		t.Fatal(err)
	}
	ins := NewInstrumented(f, nil)
	if _, err := ins.Search(vec.Vector{0}, 1); err != nil {
		t.Fatal(err)
	}
	if ins.Calls() != 1 || ins.SimulatedTime() != 0 {
		t.Error("nil model should count calls with zero simulated time")
	}
}
