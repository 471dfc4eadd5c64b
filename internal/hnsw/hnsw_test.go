package hnsw

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		dim  int
	}{
		{name: "zero dim", dim: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.dim, vec.L2Distance, 0); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestEmptyAndBadQueries(t *testing.T) {
	ix, err := New(3, vec.L2Distance, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(vec.Vector{0, 0, 0}, 1); !errors.Is(err, vectordb.ErrEmptyIndex) {
		t.Errorf("empty index error = %v", err)
	}
	if err := ix.Add(vec.Vector{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(vec.Vector{0, 0, 0}, 0); !errors.Is(err, vectordb.ErrBadK) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := ix.Search(vec.Vector{0}, 1); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Errorf("dim mismatch error = %v", err)
	}
	if err := ix.Add(vec.Vector{1}); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Errorf("Add dim mismatch error = %v", err)
	}
}

func TestSingleVector(t *testing.T) {
	ix, _ := New(2, vec.L2Distance, 1)
	if err := ix.Add(vec.Vector{1, 1}); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(vec.Vector{0, 0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 0 {
		t.Errorf("Search = %+v", res)
	}
}

func TestExactOnTinyData(t *testing.T) {
	// With few points, HNSW degenerates to exact search.
	ix, _ := New(2, vec.L2Distance, 2)
	pts := []vec.Vector{{0, 0}, {1, 0}, {0, 1}, {5, 5}, {-3, 2}}
	if err := ix.Add(pts...); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(vec.Vector{0.9, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 1 || res[1].ID != 0 {
		t.Errorf("Search = %+v, want ids [1 0]", res)
	}
	if ix.Len() != 5 || ix.Dim() != 2 {
		t.Error("accessors wrong")
	}
}

func TestVectorAccessor(t *testing.T) {
	ix, _ := New(2, vec.L2Distance, 1)
	if err := ix.Add(vec.Vector{3, 4}); err != nil {
		t.Fatal(err)
	}
	v, err := ix.Vector(0)
	if err != nil || !slices.Equal(v, vec.Vector{3, 4}) {
		t.Errorf("Vector(0) = %v, %v", v, err)
	}
	if _, err := ix.Vector(1); err == nil {
		t.Error("out of range should error")
	}
}

// buildRandom indexes n random d-dim vectors and returns the index plus an
// exact flat reference over the same data.
func buildRandom(t *testing.T, n, d int, seed uint64) (*Index, *vectordb.FlatIndex) {
	t.Helper()
	rng := vec.NewRand(seed)
	ix, err := New(d, vec.L2Distance, seed)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := vectordb.NewFlatIndex(d, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := vec.RandomGaussian(rng, d)
		if err := ix.Add(v); err != nil {
			t.Fatal(err)
		}
		if err := flat.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return ix, flat
}

func TestRecallAgainstExact(t *testing.T) {
	const (
		n       = 2000
		d       = 32
		k       = 10
		queries = 50
	)
	ix, flat := buildRandom(t, n, d, 42)
	rng := vec.NewRand(43)
	var hits, total int
	for qi := 0; qi < queries; qi++ {
		q := vec.RandomGaussian(rng, d)
		approx, err := ix.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := flat.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		truth := make(map[int]struct{}, k)
		for _, s := range exact {
			truth[s.ID] = struct{}{}
		}
		for _, s := range approx {
			if _, ok := truth[s.ID]; ok {
				hits++
			}
		}
		total += k
	}
	recall := float64(hits) / float64(total)
	if recall < 0.9 {
		t.Errorf("recall@%d = %.3f, want ≥ 0.9", k, recall)
	}
}

func TestSearchEfImprovesRecall(t *testing.T) {
	const (
		n = 1500
		d = 24
		k = 10
	)
	ix, flat := buildRandom(t, n, d, 7)
	rng := vec.NewRand(8)
	recallAt := func(ef int) float64 {
		var hits, total int
		for qi := 0; qi < 40; qi++ {
			q := vec.RandomGaussian(rng, d)
			approx, err := ix.SearchEf(q, k, ef)
			if err != nil {
				t.Fatal(err)
			}
			exact, _ := flat.Search(q, k)
			truth := make(map[int]struct{}, k)
			for _, s := range exact {
				truth[s.ID] = struct{}{}
			}
			for _, s := range approx {
				if _, ok := truth[s.ID]; ok {
					hits++
				}
			}
			total += k
		}
		return float64(hits) / float64(total)
	}
	low, high := recallAt(k), recallAt(128)
	if high < low-0.02 {
		t.Errorf("recall should not degrade with larger ef: ef=k %.3f vs ef=128 %.3f", low, high)
	}
	if high < 0.9 {
		t.Errorf("recall at ef=128 = %.3f, want ≥ 0.9", high)
	}
}

func TestResultsSortedAscending(t *testing.T) {
	ix, _ := buildRandom(t, 500, 16, 3)
	rng := vec.NewRand(4)
	for qi := 0; qi < 20; qi++ {
		res, err := ix.Search(vec.RandomGaussian(rng, 16), 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res); i++ {
			if res[i-1].Dist > res[i].Dist {
				t.Fatalf("results unsorted: %+v", res)
			}
		}
	}
}

func TestConcurrentSearch(t *testing.T) {
	ix, _ := buildRandom(t, 800, 16, 5)
	rng := vec.NewRand(6)
	queries := make([]vec.Vector, 16)
	for i := range queries {
		queries[i] = vec.RandomGaussian(rng, 16)
	}
	want := make([][]vec.Scored, len(queries))
	for i, q := range queries {
		res, err := ix.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				res, err := ix.Search(q, 3)
				if err != nil {
					errs <- err
					return
				}
				for j := range res {
					if res[j] != want[i][j] {
						errs <- errors.New("concurrent search result mismatch")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDeterministicBuild(t *testing.T) {
	a, _ := buildRandom(t, 300, 8, 9)
	b, _ := buildRandom(t, 300, 8, 9)
	rng := vec.NewRand(10)
	for qi := 0; qi < 10; qi++ {
		q := vec.RandomGaussian(rng, 8)
		ra, err := a.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Search(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatal("same-seed builds must answer identically")
			}
		}
	}
}

// TestSearchIntoReusesBuffer verifies the zero-alloc entry point appends
// into the caller's buffer and matches SearchEf.
func TestSearchIntoReusesBuffer(t *testing.T) {
	ix, _ := New(8, vec.L2Distance, 8)
	rng := vec.NewRand(17)
	for i := 0; i < 300; i++ {
		if err := ix.Add(vec.RandomGaussian(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]vec.Scored, 0, 16)
	for i := 0; i < 20; i++ {
		q := vec.RandomGaussian(rng, 8)
		want, err := ix.SearchEf(q, 5, 32)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.SearchInto(buf[:0], q, 5, 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d item %d: %+v vs %+v", i, j, got[j], want[j])
			}
		}
		if cap(buf) >= 5 && len(got) > 0 && &got[0] != &buf[:1][0] {
			t.Fatal("SearchInto did not reuse the provided buffer")
		}
	}
}
