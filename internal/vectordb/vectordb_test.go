package vectordb

import (
	"errors"
	"math"
	"math/rand/v2"
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
	for _, x := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if err := f.Add(vec.Vector{1, 2, 3}, vec.Vector{4, x, 6}); err == nil {
			t.Errorf("Add accepted a vector holding %v", x)
		}
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
	for _, x := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if _, err := f.Search(vec.Vector{x, 0}, 2); !errors.Is(err, errNonFiniteQuery) {
			t.Errorf("query holding %v: error = %v, want %v", x, err, errNonFiniteQuery)
		}
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
// Search with its head-ranked bound and head skips, and an IVF index
// probing all of its cells — to the reference ranking: same
// IDs, same distance bits, same order. Dimensions run below, at and
// above vec.HeadLen; k runs from 1 past the corpus size. The corpora
// are at most 200 rows, so Search's first pass drops few rows or none
// (TestFlatScanOnLargeCorpora covers corpora it cuts), and the smallest,
// 15 rows, retains every row at every k and gives IVF fewer rows than
// it can use in each of its lists. Corpora include
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
			"small": random[:15],
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

// pushedInIDOrder is the brute force for special values: every
// distance finished with vec.L2 and offered to a vec.TopKBuffer in ID
// order, as vec.TopK offers its items. No distance is NaN (rows and
// queries are finite), so the order of the offers cannot change the
// answer.
func pushedInIDOrder(q vec.Vector, corpus []vec.Vector, k int) []vec.Scored {
	var top vec.TopKBuffer
	top.Reset(k)
	top.PushDistances(q, corpus, vec.L2)
	return top.Result()
}

// clustered returns perCentre rows at σ 0.11 around each of centres
// N(0, I) centres, the repository benchmark's shape, each row its own
// allocation, and one query at σ 0.03 around every centre.
func clustered(rng *rand.Rand, dim, centres, perCentre int) (corpus, queries []vec.Vector) {
	for c := 0; c < centres; c++ {
		centre := vec.RandomGaussian(rng, dim)
		for i := 0; i < perCentre; i++ {
			corpus = append(corpus, vec.GaussianAround(rng, centre, 0.11))
		}
		queries = append(queries, vec.GaussianAround(rng, centre, 0.03))
	}
	return corpus, queries
}

// TestFlatScanOnLargeCorpora holds Search to the brute force, bit for
// bit, on corpora of more than twice the rows its first pass retains at
// every k tried, so that the pass cuts its retained rows and drops the
// rest. Clustered rows shaped like the repository benchmark's let the
// retained rows prove the bound and skip the second walk. Duplicated
// and equidistant rows tie at the cutoff and under the bound, so the
// second walk runs and must win every (distance, ID) tie against the
// rows already finished. Rows with ±MaxFloat32 components overflow to
// +Inf heads and distances, which drop out of pass 1, and subnormal rows
// finish at 0; queries hold those values too. Add refuses rows holding
// NaN or ±Inf, and Search must refuse such queries.
func TestFlatScanOnLargeCorpora(t *testing.T) {
	const dim = 40
	rng := vec.NewRand(11)
	corpus, queries := clustered(rng, dim, 150, 8)
	queries = append(queries[:12], vec.RandomGaussian(rng, dim), make(vec.Vector, dim))

	var distinct, duplicated []vec.Vector
	for i := 0; i < 20; i++ {
		distinct = append(distinct, vec.RandomGaussian(rng, dim))
	}
	for i := 0; i < 1200; i++ {
		duplicated = append(duplicated, distinct[rng.IntN(len(distinct))])
	}
	var equidistant []vec.Vector
	for rep := 0; rep < 15; rep++ { // ±3 along every axis: all 3 from the origin, exactly
		for i := 0; i < dim; i++ {
			for _, r := range []float32{3, -3} {
				v := make(vec.Vector, dim)
				v[i] = r
				equidistant = append(equidistant, v)
			}
		}
	}

	subnormal := float32(math.SmallestNonzeroFloat32)
	special := make([]vec.Vector, len(corpus))
	for id, v := range corpus {
		v = slices.Clone(v)
		switch id % 4 {
		case 1:
			v[rng.IntN(dim)] = math.MaxFloat32
		case 2:
			v[rng.IntN(vec.HeadLen)] = -math.MaxFloat32
		case 3:
			for i := range v {
				v[i] = subnormal * float32(rng.IntN(5)-2)
			}
		}
		special[id] = v
	}
	withHead := func(q vec.Vector, i int, x float32) vec.Vector {
		q = slices.Clone(q)
		q[i] = x
		return q
	}
	tiny := withHead(make(vec.Vector, dim), dim-1, subnormal)
	specialQueries := append(slices.Clone(queries[:4]), tiny, make(vec.Vector, dim),
		withHead(queries[3], 9, math.MaxFloat32), withHead(queries[2], 0, -math.MaxFloat32))
	// A NaN or ±Inf in the query's head is refused, not ranked.
	refused := []vec.Vector{withHead(queries[0], 3, float32(math.NaN())),
		withHead(queries[1], 5, float32(math.Inf(1))), withHead(queries[2], 0, float32(math.Inf(-1)))}

	for _, c := range []struct {
		name    string
		corpus  []vec.Vector
		queries []vec.Vector
	}{
		{"clustered", corpus, queries},
		{"duplicated", duplicated, []vec.Vector{distinct[3], vec.GaussianAround(rng, distinct[7], 0.5), vec.RandomGaussian(rng, dim)}},
		{"equidistant", equidistant, []vec.Vector{make(vec.Vector, dim), equidistant[2*dim-1], vec.RandomGaussian(rng, dim)}},
		{"largest and subnormal", special, specialQueries},
	} {
		flat, err := NewFlatFromVectors(c.corpus, vec.L2Distance)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, 7} {
			if len(c.corpus) <= 2*keepPerK*k {
				t.Fatalf("%s: %d rows do not exceed the %d pass 1 retains at k %d", c.name, len(c.corpus), 2*keepPerK*k, k)
			}
			for qi, q := range c.queries {
				got, err := flat.Search(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := pushedInIDOrder(q, c.corpus, k); !sameRanking(got, want) {
					t.Fatalf("%s corpus, k %d, query %d:\n got %v\nwant %v", c.name, k, qi, got, want)
				}
			}
			for qi, q := range refused {
				if got, err := flat.Search(q, k); !errors.Is(err, errNonFiniteQuery) {
					t.Fatalf("%s corpus, k %d, refused query %d: got %v, %v; want %v", c.name, k, qi, got, err, errNonFiniteQuery)
				}
			}
		}
	}
}

// FuzzFlatSearch holds Search to the brute force on corpora the input
// shapes: up to 2 048 rows of 1–40 dimensions, k 1–20, rows clustered
// as tightly as the crowding byte says and optionally snapped to a
// coarse grid so that heads and distances tie, and special values: the
// largest float of either sign and subnormals in rows and the query's
// head, and ±Inf or NaN in the query's head, which Search must refuse
// (Add refuses rows holding NaN or ±Inf).
func FuzzFlatSearch(f *testing.F) {
	f.Add(uint64(1), uint16(1500), uint8(39), uint8(3), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(2000), uint8(39), uint8(19), uint8(0x83), uint8(0))
	f.Add(uint64(3), uint16(1100), uint8(20), uint8(3), uint8(0x40), uint8(7))
	f.Add(uint64(4), uint16(900), uint8(8), uint8(0), uint8(0xc1), uint8(0x93))
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, dims, kk, crowd, specials uint8) {
		n := 1 + int(rows)%2048
		dim := 1 + int(dims)%40
		k := 1 + int(kk)%20
		rng := vec.NewRand(seed)

		// crowd: low 6 bits the number of centres less one, the next bit
		// the spread around them (0.01 or 1), the top bit the grid.
		centres := make([]vec.Vector, 1+int(crowd&0x3f))
		for i := range centres {
			centres[i] = vec.RandomGaussian(rng, dim)
		}
		sigma := float32(1)
		if crowd&0x40 != 0 {
			sigma = 0.01
		}
		snap := func(v vec.Vector) vec.Vector {
			if crowd&0x80 != 0 {
				for i := range v {
					v[i] = float32(math.Round(float64(v[i]) * 2))
				}
			}
			return v
		}
		// The first three values are finite, for rows; the query may hold
		// any of them in its head, and is refused with the last three.
		values := []float32{math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
			float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
		every := int(specials & 0x0f) // 0: no special rows
		corpus := make([]vec.Vector, n)
		for id := range corpus {
			v := snap(vec.GaussianAround(rng, centres[rng.IntN(len(centres))], sigma))
			if every > 0 && id%every == 0 {
				v[rng.IntN(dim)] = values[rng.IntN(3)]
			}
			corpus[id] = v
		}
		q := snap(vec.GaussianAround(rng, centres[rng.IntN(len(centres))], sigma/3))
		if specials&0x10 != 0 {
			q[rng.IntN(min(dim, vec.HeadLen))] = values[int(specials>>5)%len(values)]
		}

		flat, err := NewFlatFromVectors(corpus, vec.L2Distance)
		if err != nil {
			t.Fatal(err)
		}
		got, err := flat.Search(q, k)
		if !vec.Finite(q) {
			if !errors.Is(err, errNonFiniteQuery) {
				t.Fatalf("n %d, dim %d, k %d, query head holding a NaN or ±Inf: got %v, %v; want %v", n, dim, k, got, err, errNonFiniteQuery)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := pushedInIDOrder(q, corpus, k); !sameRanking(got, want) {
			t.Fatalf("n %d, dim %d, k %d:\n got %v\nwant %v", n, dim, k, got, want)
		}
	})
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
