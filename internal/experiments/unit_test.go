package experiments

import (
	"errors"
	"testing"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

func TestBitsForCapacity(t *testing.T) {
	tests := []struct {
		n, bucket, want int
	}{
		{n: 20, bucket: 20, want: 8},      // fits the paper's L=8 easily
		{n: 5120, bucket: 20, want: 8},    // exactly 2^8·20
		{n: 5121, bucket: 20, want: 9},    // one more entry needs L=9
		{n: 200000, bucket: 20, want: 14}, // the Fig. 10 max
	}
	for _, tt := range tests {
		if got := bitsForCapacity(tt.n, tt.bucket); got != tt.want {
			t.Errorf("bitsForCapacity(%d, %d) = %d, want %d", tt.n, tt.bucket, got, tt.want)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		give float64
		want string
	}{
		{give: 2.5, want: "2.5"},
		{give: 10, want: "10"},
		{give: 0.627, want: "0.627"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.give); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestNewGridShapes(t *testing.T) {
	g := newGrid(2, 3)
	if len(g) != 2 || len(g[0]) != 3 || len(g[1]) != 3 {
		t.Error("newGrid shape wrong")
	}
	d := newDurationGrid(1, 4)
	if len(d) != 1 || len(d[0]) != 4 {
		t.Error("newDurationGrid shape wrong")
	}
}

func TestZeroDB(t *testing.T) {
	db := newZeroDB(4, 10)
	if db.Dim() != 4 || db.Len() != 10 {
		t.Error("accessors wrong")
	}
	res, err := db.Search(vec.Vector{0, 0, 0, 0}, 3)
	if err != nil || len(res) != 3 {
		t.Fatalf("Search = %v, %v", res, err)
	}
	for i, s := range res {
		if s.ID != i || s.Dist != 0 {
			t.Errorf("result %d = %+v", i, s)
		}
	}
	// k clamps to size.
	res, err = db.Search(vec.Vector{0, 0, 0, 0}, 50)
	if err != nil || len(res) != 10 {
		t.Errorf("clamped search = %d results, %v", len(res), err)
	}
	if _, err := db.Search(vec.Vector{0}, 1); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Errorf("dim mismatch error = %v", err)
	}
	if _, err := db.Search(vec.Vector{0, 0, 0, 0}, 0); !errors.Is(err, vectordb.ErrBadK) {
		t.Errorf("bad k error = %v", err)
	}
	v, err := db.Vector(5)
	if err != nil || len(v) != 4 {
		t.Errorf("Vector = %v, %v", v, err)
	}
	if _, err := db.Vector(10); err == nil {
		t.Error("out-of-range Vector should error")
	}
}

func TestFig11CapsScaling(t *testing.T) {
	big, err := NewSuite(Default())
	if err != nil {
		t.Fatal(err)
	}
	caps := big.fig11Caps()
	if caps[len(caps)-1] != 200 {
		t.Errorf("default caps = %v, want the paper's column ending at 200", caps)
	}
	small, err := NewSuite(Quick())
	if err != nil {
		t.Fatal(err)
	}
	caps = small.fig11Caps()
	if caps[len(caps)-1] > Quick().MedRAGQuestions {
		t.Errorf("quick caps = %v exceed the unique-question count", caps)
	}
}

func TestParallelFor(t *testing.T) {
	s, err := NewSuite(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// All indices visited exactly once.
	seen := make([]int, 100)
	if err := s.parallelFor(100, func(i int) error {
		seen[i]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	// Errors propagate.
	wantErr := errors.New("boom")
	if err := s.parallelFor(10, func(i int) error {
		if i == 3 {
			return wantErr
		}
		return nil
	}); !errors.Is(err, wantErr) {
		t.Errorf("parallelFor error = %v", err)
	}
	// Zero items is a no-op.
	if err := s.parallelFor(0, func(int) error { return wantErr }); err != nil {
		t.Errorf("empty parallelFor should not run fn: %v", err)
	}
}

func TestSeedsDistinctAndStable(t *testing.T) {
	cfg := Quick()
	cfg.Seeds = 4
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.seeds(), s.seeds()
	seen := make(map[uint64]struct{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seeds must be stable across calls")
		}
		if _, dup := seen[a[i]]; dup {
			t.Fatal("seeds must be distinct")
		}
		seen[a[i]] = struct{}{}
	}
}

func TestNewCacheSpecValidation(t *testing.T) {
	s, err := NewSuite(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if c, err := s.newCache(CacheSpec{Kind: "none"}, 1); err != nil || c != nil {
		t.Error("kind none should yield a nil cache")
	}
	if _, err := s.newCache(CacheSpec{Kind: "warp"}, 1); err == nil {
		t.Error("unknown kind should error")
	}
	c, err := s.newCache(CacheSpec{Kind: "flat", Capacity: 4, Tolerance: 1}, 1)
	if err != nil || c == nil {
		t.Errorf("flat spec failed: %v", err)
	}
	c, err = s.newCache(CacheSpec{Kind: "lsh", Bits: 4, BucketCapacity: 8, Tolerance: 1}, 1)
	if err != nil || c == nil {
		t.Errorf("lsh spec failed: %v", err)
	}
}
