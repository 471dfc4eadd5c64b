package vectordb

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"proximity/internal/vec"
)

func ivfRandomVectors(n, d int, seed uint64) []vec.Vector {
	rng := vec.NewRand(seed)
	out := make([]vec.Vector, n)
	for i := range out {
		out[i] = vec.RandomGaussian(rng, d)
	}
	return out
}

func TestBuildIVFValidation(t *testing.T) {
	if _, err := BuildIVF(nil, vec.L2Distance, IVFConfig{}); !errors.Is(err, ErrEmptyIndex) {
		t.Errorf("empty input error = %v", err)
	}
	if _, err := BuildIVF([]vec.Vector{{1, 2}, {1}}, vec.L2Distance, IVFConfig{}); err == nil {
		t.Error("ragged input should error")
	}
}

func TestIVFDefaults(t *testing.T) {
	ix, err := BuildIVF(ivfRandomVectors(100, 8, 1), vec.L2Distance, IVFConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.centroid) != 10 { // √100
		t.Errorf("nlist = %d, want 10", len(ix.centroid))
	}
	if ix.nprobe < 1 {
		t.Errorf("nprobe = %d", ix.nprobe)
	}
	if ix.Dim() != 8 || ix.Len() != 100 || ix.metric != vec.L2Distance {
		t.Error("accessors wrong")
	}
}

func TestIVFTinyDataset(t *testing.T) {
	// Fewer vectors than requested centroids must clamp, not crash.
	ix, err := BuildIVF([]vec.Vector{{0, 0}, {5, 5}}, vec.L2Distance, IVFConfig{NList: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(vec.Vector{0.1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 0 {
		t.Errorf("Search = %+v, want id 0", res)
	}
}

func TestIVFSearchValidation(t *testing.T) {
	ix, err := BuildIVF(ivfRandomVectors(50, 4, 3), vec.L2Distance, IVFConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(vec.Vector{0, 0, 0, 0}, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 error = %v", err)
	}
	if _, err := ix.Search(vec.Vector{0}, 1); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Errorf("dim mismatch error = %v", err)
	}
}

func TestIVFRecallImprovesWithProbes(t *testing.T) {
	const (
		n, d, k = 2000, 16, 10
		queries = 40
	)
	vectors := ivfRandomVectors(n, d, 4)
	ix, err := BuildIVF(vectors, vec.L2Distance, IVFConfig{NList: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewFlatFromVectors(vectors, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	recallAt := func(nprobe int) float64 {
		rng := vec.NewRand(5)
		var hits, total int
		for qi := 0; qi < queries; qi++ {
			q := vec.RandomGaussian(rng, d)
			approx, err := ix.SearchProbe(q, k, nprobe)
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
		return float64(hits) / float64(total)
	}
	low, all := recallAt(2), recallAt(40)
	if all < 0.999 {
		t.Errorf("probing every list must be exact, recall = %.3f", all)
	}
	if low >= all {
		t.Errorf("recall should improve with probes: nprobe=2 %.3f vs full %.3f", low, all)
	}
	if low < 0.2 {
		t.Errorf("nprobe=2 recall = %.3f, implausibly low", low)
	}
}

func TestIVFListsPartitionTheData(t *testing.T) {
	vectors := ivfRandomVectors(300, 8, 6)
	ix, err := BuildIVF(vectors, vec.L2Distance, IVFConfig{NList: 12, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]struct{}, len(vectors))
	for _, list := range ix.lists {
		for _, id := range list {
			if _, dup := seen[id]; dup {
				t.Fatalf("vector %d appears in two lists", id)
			}
			seen[id] = struct{}{}
		}
	}
	if len(seen) != len(vectors) {
		t.Errorf("lists cover %d of %d vectors", len(seen), len(vectors))
	}
}

func TestIVFVectorAccessor(t *testing.T) {
	vectors := ivfRandomVectors(10, 4, 7)
	ix, err := BuildIVF(vectors, vec.L2Distance, IVFConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ix.Vector(3)
	if err != nil || !slices.Equal(v, vectors[3]) {
		t.Errorf("Vector(3) = %v, %v", v, err)
	}
	if _, err := ix.Vector(-1); err == nil {
		t.Error("negative id should error")
	}
	if _, err := ix.Vector(10); err == nil {
		t.Error("out-of-range id should error")
	}
}

func TestIVFClusteredDataGetsCleanLists(t *testing.T) {
	// Points in two tight, distant blobs: with 2 centroids, each list
	// holds exactly one blob, and nprobe=1 finds in-blob neighbors.
	rng := vec.NewRand(8)
	a := vec.Scale(vec.RandomUnit(rng, 8), 20)
	b := vec.Scale(vec.RandomUnit(rng, 8), -20)
	var vectors []vec.Vector
	for i := 0; i < 50; i++ {
		vectors = append(vectors, vec.GaussianAround(rng, a, 0.1))
		vectors = append(vectors, vec.GaussianAround(rng, b, 0.1))
	}
	ix, err := BuildIVF(vectors, vec.L2Distance, IVFConfig{NList: 2, NProbe: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := vec.GaussianAround(rng, a, 0.1)
	res, err := ix.Search(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res {
		// Blob-a points have even indices by construction.
		if s.ID%2 != 0 {
			t.Errorf("nprobe=1 search near blob A returned blob-B vector %d", s.ID)
		}
	}
}

func TestIntSqrt(t *testing.T) {
	tests := []struct{ give, want int }{
		{0, 1}, {1, 1}, {2, 2}, {4, 2}, {5, 3}, {100, 10}, {101, 11},
	}
	for _, tt := range tests {
		if got := intSqrt(tt.give); got != tt.want {
			t.Errorf("intSqrt(%d) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

// TestTopKPrefixConsistency pins IVF search's prefix contract: searching
// with a larger k and keeping the first k' results equals searching with
// k' directly.
func TestTopKPrefixConsistency(t *testing.T) {
	rng := vec.NewRand(9)
	corpus := ivfRandomVectors(150, 8, 42)
	// Probe every list so the candidate pool always exceeds the largest
	// k under test.
	ix, err := BuildIVF(corpus, vec.L2Distance, IVFConfig{NList: 12, NProbe: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		q := vec.RandomGaussian(rng, 8)
		big, err := ix.Search(q, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, 12} {
			small, err := ix.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(big[:k], small) {
				t.Fatalf("query %d: Search(12)[:%d] = %v, Search(%d) = %v", i, k, big[:k], k, small)
			}
		}
	}
}
