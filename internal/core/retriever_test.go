package core

import (
	"testing"
	"time"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// lineDB builds a flat index over n points at positions {0, 1, ..., n-1}
// on a 1-D line, which makes nearest-neighbor results easy to reason
// about.
func lineDB(t *testing.T, n int) *vectordb.FlatIndex {
	t.Helper()
	db, err := vectordb.NewFlatIndex(1, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Add(vec.Vector{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestNewCachedRetrieverValidation(t *testing.T) {
	db := lineDB(t, 4)
	cache := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 1})
	tests := []struct {
		name  string
		cache Cache
		db    vectordb.DB
		opts  RetrieverOptions
	}{
		{name: "nil db", cache: cache, db: nil, opts: RetrieverOptions{K: 1}},
		{name: "zero K", cache: cache, db: db, opts: RetrieverOptions{K: 0}},
		{name: "negative rerank", cache: cache, db: db, opts: RetrieverOptions{K: 1, Rerank: -1}},
		{name: "rerank without source", cache: cache, db: db, opts: RetrieverOptions{K: 1, Rerank: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewCachedRetriever(tt.cache, tt.db, tt.opts); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRetrieveMissThenHit(t *testing.T) {
	db := lineDB(t, 10)
	cache := mustFlat(t, 1, Options{Capacity: 4, Tolerance: 0.5})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	first, err := r.Retrieve(vec.Vector{2.1})
	if err != nil {
		t.Fatal(err)
	}
	if first.Hit {
		t.Error("first retrieval must miss")
	}
	wantDocs := []int{2, 3, 1} // closest to 2.1
	for i, want := range wantDocs {
		if first.Docs[i] != want {
			t.Fatalf("miss docs = %v, want %v", first.Docs, wantDocs)
		}
	}

	second, err := r.Retrieve(vec.Vector{2.3}) // within τ of 2.1
	if err != nil {
		t.Fatal(err)
	}
	if !second.Hit {
		t.Error("similar retrieval should hit")
	}
	for i, want := range wantDocs {
		if second.Docs[i] != want {
			t.Fatalf("hit docs = %v, want cached %v", second.Docs, wantDocs)
		}
	}
	if got := cache.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("cache stats = %+v", got)
	}
}

func TestRetrieveNoCacheBaseline(t *testing.T) {
	db := lineDB(t, 5)
	r, err := NewCachedRetriever(nil, db, RetrieverOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := r.Retrieve(vec.Vector{1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit {
			t.Error("no-cache baseline can never hit")
		}
		if res.CacheTime != 0 {
			t.Error("no cache time expected without a cache")
		}
		if len(res.Docs) != 2 {
			t.Errorf("docs = %v", res.Docs)
		}
	}
}

func TestRetrieveSimulatedLatency(t *testing.T) {
	db := lineDB(t, 5)
	cache := mustFlat(t, 1, Options{Capacity: 4, Tolerance: 0.5})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{
		K:       1,
		Latency: fixedLatency(80 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	miss, err := r.Retrieve(vec.Vector{1})
	if err != nil {
		t.Fatal(err)
	}
	if miss.DBTime != 80*time.Millisecond {
		t.Errorf("miss DBTime = %v", miss.DBTime)
	}
	if miss.Total() < miss.DBTime {
		t.Error("Total must include DBTime")
	}
	hit, err := r.Retrieve(vec.Vector{1.1})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Hit {
		t.Fatal("expected hit")
	}
	if hit.DBTime != 0 {
		t.Errorf("hit DBTime = %v, want 0 (database bypassed)", hit.DBTime)
	}
}

func TestRetrieveRerank(t *testing.T) {
	// ρ = 2, K = 2: the miss stores 4 candidates; a later hit from a
	// shifted query must re-rank and return the 2 best for the *new*
	// query, not the original one.
	db := lineDB(t, 20)
	cache := mustFlat(t, 1, Options{Capacity: 4, Tolerance: 3})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{K: 2, Rerank: 2, Source: db})
	if err != nil {
		t.Fatal(err)
	}
	miss, err := r.Retrieve(vec.Vector{5})
	if err != nil {
		t.Fatal(err)
	}
	// Four nearest to q=5 are {5, 4, 6, 3} (3 beats 7 on the ID
	// tie-break at distance 2); returned top-2 for q=5 is [5 4].
	if len(miss.Docs) != 2 || miss.Docs[0] != 5 || miss.Docs[1] != 4 {
		t.Fatalf("miss docs = %v, want [5 4]", miss.Docs)
	}

	hit, err := r.Retrieve(vec.Vector{6.6})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Hit {
		t.Fatal("expected hit at distance 1.6 ≤ τ=3")
	}
	// Stored candidates for q=5 are {5,4,6,3}. Re-ranked against 6.6
	// the best two are 6 (0.6 away) and 5 (1.6 away) — different from
	// the cached order, which proves re-ranking ran.
	if len(hit.Docs) != 2 || hit.Docs[0] != 6 || hit.Docs[1] != 5 {
		t.Errorf("re-ranked docs = %v, want [6 5]", hit.Docs)
	}
}

func TestRetrieveRerankOneKeepsDBOrder(t *testing.T) {
	db := lineDB(t, 10)
	cache := mustFlat(t, 1, Options{Capacity: 4, Tolerance: 3})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{K: 2, Rerank: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retrieve(vec.Vector{5}); err != nil {
		t.Fatal(err)
	}
	hit, err := r.Retrieve(vec.Vector{6.4})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Hit {
		t.Fatal("expected hit")
	}
	// Without re-ranking the cached order for q=5 is returned as-is.
	if hit.Docs[0] != 5 || hit.Docs[1] != 4 {
		t.Errorf("docs = %v, want [5 4] (original order)", hit.Docs)
	}
}

func TestRetrieveErrors(t *testing.T) {
	db := lineDB(t, 3)
	cache := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 1})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retrieve(nil); err == nil {
		t.Error("nil query should error")
	}
	// Dimension mismatch propagates from the database.
	if _, err := r.Retrieve(vec.Vector{1, 2}); err == nil {
		t.Error("dim mismatch should error")
	}
	// The failed retrieval must not have polluted the cache.
	if cache.Len() != 0 {
		t.Error("failed retrieval should not insert into the cache")
	}
}

func TestRetrieveEmptyDBError(t *testing.T) {
	db, err := vectordb.NewFlatIndex(1, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewCachedRetriever(nil, db, RetrieverOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retrieve(vec.Vector{0}); err == nil {
		t.Error("empty database should surface an error")
	}
}

func TestRetrieverAccessors(t *testing.T) {
	db := lineDB(t, 3)
	cache := mustFlat(t, 1, Options{Capacity: 2, Tolerance: 1})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{K: 2, Rerank: 2, Source: db})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache() != Cache(cache) || r.DB() != vectordb.DB(db) {
		t.Error("accessors should return wired components")
	}
	if r.K() != 2 || r.opts.Rerank != 2 {
		t.Error("K/Rerank accessors wrong")
	}
}

func TestRetrieveWithLSHCache(t *testing.T) {
	// End-to-end: the LSH variant must serve repeated similar queries
	// from the cache just like the flat one.
	db, err := vectordb.NewFlatIndex(16, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(21)
	for i := 0; i < 200; i++ {
		if err := db.Add(vec.RandomGaussian(rng, 16)); err != nil {
			t.Fatal(err)
		}
	}
	cache := mustLSH(t, 16, LSHOptions{Bits: 6, Tolerance: 0.5, Seed: 22})
	r, err := NewCachedRetriever(cache, db, RetrieverOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	q := vec.RandomGaussian(rng, 16)
	first, err := r.Retrieve(q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Retrieve(vec.GaussianAround(rng, q, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Hit {
		t.Fatal("nearby repeat should hit the LSH cache")
	}
	for i := range first.Docs {
		if first.Docs[i] != again.Docs[i] {
			t.Errorf("hit docs %v differ from original %v", again.Docs, first.Docs)
		}
	}
}

// fixedLatency is a LatencyModel with one constant service time.
type fixedLatency time.Duration

func (f fixedLatency) Lookup() time.Duration { return time.Duration(f) }
