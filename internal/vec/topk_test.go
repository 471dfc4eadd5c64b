package vec

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTopK(t *testing.T) {
	items := []Scored{
		{ID: 0, Dist: 5},
		{ID: 1, Dist: 1},
		{ID: 2, Dist: 3},
		{ID: 3, Dist: 2},
		{ID: 4, Dist: 4},
	}
	tests := []struct {
		name string
		k    int
		want []int
	}{
		{name: "k=0", k: 0, want: nil},
		{name: "k=1", k: 1, want: []int{1}},
		{name: "k=3", k: 3, want: []int{1, 3, 2}},
		{name: "k=len", k: 5, want: []int{1, 3, 2, 4, 0}},
		{name: "k beyond len", k: 10, want: []int{1, 3, 2, 4, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := IDs(TopK(items, tt.k))
			if len(got) != len(tt.want) {
				t.Fatalf("TopK(k=%d) ids = %v, want %v", tt.k, got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("TopK(k=%d) ids = %v, want %v", tt.k, got, tt.want)
				}
			}
		})
	}
}

func TestTopKTieBreaksByID(t *testing.T) {
	items := []Scored{{ID: 9, Dist: 1}, {ID: 2, Dist: 1}, {ID: 5, Dist: 1}}
	got := IDs(TopK(items, 2))
	if got[0] != 2 || got[1] != 5 {
		t.Errorf("tie-break order = %v, want [2 5]", got)
	}
}

func TestTopKDoesNotMutateInput(t *testing.T) {
	items := []Scored{{ID: 0, Dist: 2}, {ID: 1, Dist: 1}}
	TopK(items, 1)
	if items[0].ID != 0 || items[1].ID != 1 {
		t.Errorf("input mutated: %v", items)
	}
}

// Property: TopK matches a full sort-based reference selection.
func TestTopKMatchesSortReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		n := int(r.Uint64()%200) + 1
		k := int(r.Uint64()%uint64(n+5)) + 1
		items := make([]Scored, n)
		for i := range items {
			// Coarse distances force ties to exercise the ID tie-break.
			items[i] = Scored{ID: i, Dist: float32(r.Uint64() % 16)}
		}
		ref := make([]Scored, n)
		copy(ref, items)
		sort.Slice(ref, func(i, j int) bool { return less(ref[i], ref[j]) })
		if k < n {
			ref = ref[:k]
		}
		got := TopK(items, k)
		if len(got) != len(ref) {
			return false
		}
		for i := range got {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TopKByDistance scores every candidate vector against the query with the
// given distance function and returns the k closest through one
// TopKBuffer. IDs are the candidate indices.
func TopKByDistance(query Vector, candidates []Vector, k int, dist DistanceFunc) []Scored {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	var b TopKBuffer
	b.Reset(k)
	b.PushDistances(query, candidates, dist)
	return b.Result()
}

func TestTopKByDistance(t *testing.T) {
	query := Vector{0, 0}
	candidates := []Vector{
		{3, 4},  // dist 5
		{1, 0},  // dist 1
		{0, 2},  // dist 2
		{10, 0}, // dist 10
	}
	got := TopKByDistance(query, candidates, 2, L2)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("TopKByDistance = %+v, want ids [1 2]", got)
	}
	if got[0].Dist != 1 || got[1].Dist != 2 {
		t.Errorf("distances = %v,%v want 1,2", got[0].Dist, got[1].Dist)
	}
}

func TestTopKByDistanceEdgeCases(t *testing.T) {
	if got := TopKByDistance(Vector{0}, nil, 3, L2); got != nil {
		t.Errorf("empty candidates should yield nil, got %v", got)
	}
	if got := TopKByDistance(Vector{0}, []Vector{{1}}, 0, L2); got != nil {
		t.Errorf("k=0 should yield nil, got %v", got)
	}
	got := TopKByDistance(Vector{0}, []Vector{{1}, {2}}, 5, L2)
	if len(got) != 2 {
		t.Errorf("k clamped to len(candidates): got %d results", len(got))
	}
}

// Property: brute-force selection returns candidates in non-decreasing
// distance order and never returns a candidate farther than an excluded one.
func TestTopKByDistanceIsOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		d := 2 + int(r.Uint64()%8)
		n := 5 + int(r.Uint64()%60)
		k := 1 + int(r.Uint64()%10)
		q := RandomGaussian(r, d)
		cands := make([]Vector, n)
		for i := range cands {
			cands[i] = RandomGaussian(r, d)
		}
		got := TopKByDistance(q, cands, k, L2)
		for i := 1; i < len(got); i++ {
			if got[i-1].Dist > got[i].Dist {
				return false
			}
		}
		if len(got) == 0 {
			return false
		}
		worst := got[len(got)-1].Dist
		selected := make(map[int]bool, len(got))
		for _, s := range got {
			selected[s.ID] = true
		}
		for i, c := range cands {
			if !selected[i] && L2(q, c) < worst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
