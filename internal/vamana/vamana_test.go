package vamana

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

func randomVectors(n, d int, seed uint64) []vec.Vector {
	rng := vec.NewRand(seed)
	out := make([]vec.Vector, n)
	for i := range out {
		out[i] = vec.RandomGaussian(rng, d)
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	tests := []struct {
		name string
		vs   []vec.Vector
	}{
		{name: "empty", vs: nil},
		{name: "ragged dims", vs: []vec.Vector{{1, 2}, {1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Build(tt.vs, vec.L2Distance, 0); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestSearchValidation(t *testing.T) {
	ix, err := Build(randomVectors(20, 4, 2), vec.L2Distance, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(vec.Vector{0, 0, 0, 0}, 0); !errors.Is(err, vectordb.ErrBadK) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := ix.Search(vec.Vector{0}, 1); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Errorf("dim mismatch error = %v", err)
	}
}

func TestDegreeBounded(t *testing.T) {
	ix, err := Build(randomVectors(300, 8, 3), vec.L2Distance, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ix.Len(); i++ {
		if d := len(ix.adj[i]); d > maxDegree {
			t.Fatalf("node %d degree %d exceeds R=%d", i, d, maxDegree)
		}
	}
}

func TestTinyDataset(t *testing.T) {
	ix, err := Build([]vec.Vector{{0, 0}, {1, 0}, {0, 1}}, vec.L2Distance, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(vec.Vector{0.9, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 1 {
		t.Errorf("Search = %+v, want id 1", res)
	}
	if ix.Dim() != 2 || ix.Len() != 3 {
		t.Error("accessors wrong")
	}
}

func TestRecallAgainstExact(t *testing.T) {
	const (
		n       = 1500
		d       = 24
		k       = 10
		queries = 40
	)
	vs := randomVectors(n, d, 5)
	ix, err := Build(vs, vec.L2Distance, 5)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := vectordb.NewFlatIndex(d, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	if err := flat.Add(vs...); err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(6)
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
	if recall < 0.85 {
		t.Errorf("recall@%d = %.3f, want ≥ 0.85", k, recall)
	}
}

// TestSearchWithStats: a search's simulated I/O, the nodes its beam
// expands, is a small fraction of the graph.
func TestSearchWithStats(t *testing.T) {
	ix, err := Build(randomVectors(1000, 16, 7), vec.L2Distance, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := vec.RandomGaussian(vec.NewRand(8), 16)
	res, err := ix.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	visited, _ := ix.beamSearch(q, beamWidth)
	if len(visited) == 0 {
		t.Error("beam search should expand nodes")
	}
	if len(visited) >= ix.Len()/2 {
		t.Errorf("beam search expanded %d of %d nodes; graph search should touch a small fraction",
			len(visited), ix.Len())
	}
}

func TestResultsSortedAndDeduped(t *testing.T) {
	ix, err := Build(randomVectors(400, 8, 9), vec.L2Distance, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(10)
	for qi := 0; qi < 20; qi++ {
		res, err := ix.Search(vec.RandomGaussian(rng, 8), 6)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]struct{}, len(res))
		for i, s := range res {
			if i > 0 && res[i-1].Dist > s.Dist {
				t.Fatalf("unsorted results: %+v", res)
			}
			if _, dup := seen[s.ID]; dup {
				t.Fatalf("duplicate id %d in results", s.ID)
			}
			seen[s.ID] = struct{}{}
		}
	}
}

func TestVectorAccessorAndMedoid(t *testing.T) {
	vs := []vec.Vector{{0, 0}, {10, 10}, {0.1, 0.1}, {5, 5}}
	ix, err := Build(vs, vec.L2Distance, 11)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ix.Vector(1)
	if err != nil || !slices.Equal(v, vec.Vector{10, 10}) {
		t.Errorf("Vector(1) = %v, %v", v, err)
	}
	if _, err := ix.Vector(99); err == nil {
		t.Error("out of range should error")
	}
	// Centroid is (3.775, 3.775); closest point is {5,5}.
	if ix.medoid != 3 {
		t.Errorf("Medoid = %d, want 3", ix.medoid)
	}
}

func TestConcurrentSearch(t *testing.T) {
	ix, err := Build(randomVectors(600, 12, 13), vec.L2Distance, 13)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(14)
	queries := make([]vec.Vector, 10)
	for i := range queries {
		queries[i] = vec.RandomGaussian(rng, 12)
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
	fail := make(chan string, 32)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				res, err := ix.Search(q, 3)
				if err != nil {
					fail <- err.Error()
					return
				}
				for j := range res {
					if res[j] != want[i][j] {
						fail <- "result mismatch under concurrency"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
}
