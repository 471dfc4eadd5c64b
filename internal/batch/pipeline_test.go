package batch_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proximity/internal/batch"
	"proximity/internal/core"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// buildIVF creates a deterministic IVF index over a random corpus.
func buildIVF(t *testing.T, n, dim int, seed uint64) *vectordb.IVFIndex {
	t.Helper()
	rng := vec.NewRand(seed)
	vectors := make([]vec.Vector, n)
	for i := range vectors {
		vectors[i] = vec.RandomGaussian(rng, dim)
	}
	ix, err := vectordb.BuildIVF(vectors, vec.L2Distance, vectordb.IVFConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestPipelineMatchesDirectSearch replays a query stream through the
// pipeline under concurrency and checks every result against a direct
// db.Search — the pipeline must be an invisible performance layer. The
// database is held until every request is in flight, so each duplicate
// overlaps its leader. The stream also carries 3·q for some queries: a
// scaled copy shares every origin-hyperplane signature with q but lies
// far from it, so it must search on its own rather than join q's flight.
func TestPipelineMatchesDirectSearch(t *testing.T) {
	ix := buildIVF(t, 120, 8, 3)
	gate := &gatedDB{DB: ix, release: make(chan struct{})}
	pipe, err := batch.New(gate)
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	rng := vec.NewRand(21)
	queries := make([]vec.Vector, n)
	for i := range queries {
		if i%3 == 0 && i > 0 {
			queries[i] = queries[i-1] // in-flight duplicates
		} else {
			queries[i] = vec.RandomGaussian(rng, 8)
		}
	}
	for i := 0; i < n; i += 4 { // never a duplicate, so never scaled twice
		queries = append(queries, vec.Scale(vec.Clone(queries[i]), 3))
	}
	distinct := make(map[string]bool)
	for _, q := range queries {
		distinct[fmt.Sprint(q)] = true
	}
	duplicates := int64(len(queries) - len(distinct))

	results := make([][]vec.Scored, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = pipe.Search(queries[i], 5)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for pipe.Stats().Searches != int64(len(queries)) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate.release)
	wg.Wait()

	scaledDiffers := false
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := ix.Search(queries[i], 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("query %d: pipeline %v, direct %v", i, results[i], want)
		}
		if i >= n && !reflect.DeepEqual(results[i], results[(i-n)*4]) {
			scaledDiffers = true
		}
	}
	if !scaledDiffers {
		t.Fatal("every 3·q has q's results; the stream cannot tell a wrongly shared flight")
	}

	st := pipe.Stats()
	if st.Searches != int64(len(queries)) {
		t.Errorf("Searches = %d, want %d", st.Searches, len(queries))
	}
	if st.Coalesced != duplicates {
		t.Errorf("Coalesced = %d, want the %d byte-identical duplicates", st.Coalesced, duplicates)
	}
	if calls := gate.calls.Load(); st.Searches != st.Coalesced+calls {
		t.Errorf("counter mismatch: searches=%d coalesced=%d database calls=%d",
			st.Searches, st.Coalesced, calls)
	}
}

// TestPipelineThroughRetriever wires the pipeline into a CachedRetriever
// via the Searcher option and checks the retrieved documents match an
// unbatched retriever query-for-query, hits and misses alike.
func TestPipelineThroughRetriever(t *testing.T) {
	ix := buildIVF(t, 80, 8, 7)
	pipe, err := batch.New(ix)
	if err != nil {
		t.Fatal(err)
	}

	newCache := func() core.Cache {
		c, err := core.NewFlat(8, core.Options{Capacity: 64, Tolerance: 0.5, Policy: core.LRU})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	batched, err := core.NewCachedRetriever(newCache(), ix, core.RetrieverOptions{K: 3, Searcher: pipe})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.NewCachedRetriever(newCache(), ix, core.RetrieverOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	rng := vec.NewRand(31)
	for i := 0; i < 40; i++ {
		var q vec.Vector
		if i%4 == 3 {
			q = vec.RandomGaussian(vec.NewRand(1000), 8) // same query each time → cache hits
		} else {
			q = vec.RandomGaussian(rng, 8)
		}
		got, err := batched.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Retrieve(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Docs, want.Docs) || got.Hit != want.Hit {
			t.Fatalf("query %d: batched (%v, hit=%v) vs plain (%v, hit=%v)",
				i, got.Docs, got.Hit, want.Docs, want.Hit)
		}
	}
	if st := pipe.Stats(); st.Searches == 0 {
		t.Error("pipeline saw no miss traffic")
	}

	// Overlapping misses on q and 3·q (one origin-hyperplane signature,
	// far more than τ apart): each must be served, and cached under its
	// own key, with its own documents.
	gate := &gatedDB{DB: ix, release: make(chan struct{})}
	gated, err := batch.New(gate)
	if err != nil {
		t.Fatal(err)
	}
	cache := newCache()
	r, err := core.NewCachedRetriever(cache, ix, core.RetrieverOptions{K: 3, Searcher: gated})
	if err != nil {
		t.Fatal(err)
	}
	q := vec.RandomGaussian(vec.NewRand(41), 8)
	pair := []vec.Vector{q, vec.Scale(vec.Clone(q), 3)}
	if d := vec.L2(pair[0], pair[1]); d <= 0.5 {
		t.Fatalf("q and 3·q are %.2f apart, within τ", d)
	}
	served := make([][]int, len(pair))
	var wg sync.WaitGroup
	for i, q := range pair {
		wg.Add(1)
		go func(i int, q vec.Vector) {
			defer wg.Done()
			res, err := r.Retrieve(q)
			if err != nil {
				t.Error(err)
			}
			served[i] = res.Docs
		}(i, q)
	}
	deadline := time.Now().Add(10 * time.Second)
	for gated.Stats().Searches != int64(len(pair)) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate.release)
	wg.Wait()
	var own [2][]int
	for i, q := range pair {
		scored, err := ix.Search(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		own[i] = vec.IDs(scored)
		if !reflect.DeepEqual(served[i], own[i]) {
			t.Errorf("query %d served %v, its own search %v", i, served[i], own[i])
		}
		if docs, ok := cache.Get(q); !ok || !reflect.DeepEqual(docs, own[i]) {
			t.Errorf("query %d: cache.Get = (%v, %v), want its own %v", i, docs, ok, own[i])
		}
	}
	if reflect.DeepEqual(own[0], own[1]) {
		t.Fatal("q and 3·q have the same documents; the check cannot tell them apart")
	}
}

// TestPipelineIsADB pins the vectordb.DB passthrough surface.
func TestPipelineIsADB(t *testing.T) {
	ix := buildIVF(t, 50, 8, 17)
	pipe, err := batch.New(ix)
	if err != nil {
		t.Fatal(err)
	}
	var db vectordb.DB = pipe
	if db.Dim() != ix.Dim() || db.Len() != ix.Len() {
		t.Errorf("passthrough Dim/Len = %d/%d, want %d/%d", db.Dim(), db.Len(), ix.Dim(), ix.Len())
	}
}

// gatedDB holds every search until release closes, and counts the
// searches that reach the database.
type gatedDB struct {
	vectordb.DB
	release chan struct{}
	calls   atomic.Int64
}

func (g *gatedDB) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	<-g.release
	g.calls.Add(1)
	return g.DB.Search(q, k)
}

// failingDB holds every search until release closes, then fails it with
// an error naming the query. entered receives one value per search that
// reaches it.
type failingDB struct {
	entered chan struct{}
	release chan struct{}
}

var errBackend = errors.New("backend down")

func (d *failingDB) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	d.entered <- struct{}{}
	<-d.release
	return nil, fmt.Errorf("search %v: %w", q, errBackend)
}
func (d *failingDB) Dim() int { return 2 }
func (d *failingDB) Len() int { return 1 }

// fingerprintCollision returns two distinct vectors whose
// batch.Fingerprint values are equal (the first pair a search over
// {i, 1}, i = 0, 1, 2, ... meets), so exact-mode coalescing meets a real
// collision.
func fingerprintCollision(t *testing.T) (vec.Vector, vec.Vector) {
	t.Helper()
	a, b := vec.Vector{110909, 1}, vec.Vector{1048599, 1}
	if batch.Fingerprint(a) != batch.Fingerprint(b) {
		t.Fatal("the pair's fingerprints do not collide")
	}
	return a, b
}

// TestPipelineCounters pins what the counters mean over a failing
// database: n concurrent duplicates of one query plus one fingerprint
// collision are n+1 searches, of which only the leader's and the
// collision's reach the database. Both fail, so Errors counts those
// two; followers receive the leader's error without searching.
func TestPipelineCounters(t *testing.T) {
	const n = 8
	q, collider := fingerprintCollision(t)
	db := &failingDB{entered: make(chan struct{}, n+1), release: make(chan struct{})}
	pipe, err := batch.New(db)
	if err != nil {
		t.Fatal(err)
	}

	errs := make([]error, n+1)
	var wg sync.WaitGroup
	search := func(i int, q vec.Vector) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = pipe.Search(q, 3)
		}()
	}
	search(0, q)
	<-db.entered // request 0 leads the flight
	for i := 1; i < n; i++ {
		search(i, vec.Clone(q))
	}
	search(n, collider)
	<-db.entered // the collision searches on its own
	deadline := time.Now().Add(10 * time.Second)
	for pipe.Stats().Coalesced != n-1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(db.release)
	wg.Wait()

	st := pipe.Stats()
	searched := st.Searches - st.Coalesced // leads + collisions
	if st.Searches != n+1 || st.Coalesced != n-1 || searched != 2 {
		t.Fatalf("stats = %+v, want %d searches, %d coalesced, 1 collision", st, n+1, n-1)
	}
	if st.Errors != searched {
		t.Errorf("Errors = %d, want leads + collisions = %d", st.Errors, searched)
	}
	if !errors.Is(errs[0], errBackend) {
		t.Fatalf("leader error = %v, want %v", errs[0], errBackend)
	}
	for i := 1; i < n; i++ {
		if errs[i] != errs[0] {
			t.Errorf("follower %d error = %v, want the leader's %v", i, errs[i], errs[0])
		}
	}
	if !errors.Is(errs[n], errBackend) || errs[n] == errs[0] {
		t.Errorf("collision error = %v, want its own search's failure", errs[n])
	}
}

// TestLeaderYieldsToDuplicates: with one P, a leader that searched a
// CPU-bound index without yielding would finish before a duplicate
// already waiting to run reached the coalescer, so no duplicate would
// ever share its flight. The leader yields before searching, and the
// duplicate joins.
func TestLeaderYieldsToDuplicates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ix := buildIVF(t, 60, 8, 19)
	pipe, err := batch.New(ix)
	if err != nil {
		t.Fatal(err)
	}
	q := vec.RandomGaussian(vec.NewRand(23), 8)
	const pairs = 10
	for i := 0; i < pairs; i++ {
		var wg sync.WaitGroup
		for j := 0; j < 2; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := pipe.Search(q, 3); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if st := pipe.Stats(); st.Coalesced == 0 {
		t.Errorf("stats = %+v: no duplicate joined a flight in %d concurrent pairs", st, pairs)
	}
}
