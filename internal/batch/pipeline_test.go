package batch_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"proximity/internal/batch"
	"proximity/internal/core"
	"proximity/internal/shard"
	"proximity/internal/telemetry"
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
// db.Search — the pipeline must be an invisible performance layer.
func TestPipelineMatchesDirectSearch(t *testing.T) {
	ix := buildIVF(t, 120, 8, 3)
	counting := vectordb.NewInstrumented(ix, nil)
	pipe, err := batch.New(counting, batch.Options{})
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

	results := make([][]vec.Scored, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = pipe.Search(queries[i], 5)
		}(i)
	}
	wg.Wait()

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
	}

	st := pipe.Stats()
	if st.Searches != n {
		t.Errorf("Searches = %d, want %d", st.Searches, n)
	}
	if calls := int64(counting.Calls()); st.Searches != st.Coalesced+calls {
		t.Errorf("counter mismatch: searches=%d coalesced=%d database calls=%d",
			st.Searches, st.Coalesced, calls)
	}
}

// TestPipelineThroughRetriever wires the pipeline into a CachedRetriever
// via the Searcher option and checks the retrieved documents match an
// unbatched retriever query-for-query, hits and misses alike.
func TestPipelineThroughRetriever(t *testing.T) {
	ix := buildIVF(t, 80, 8, 7)
	pipe, err := batch.New(ix, batch.Options{})
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
}

// TestPipelineLSHCoalescing checks that near-identical concurrent misses
// share one index search under CoalesceLSH.
func TestPipelineLSHCoalescing(t *testing.T) {
	ix := buildIVF(t, 60, 8, 11)
	counting := vectordb.NewInstrumented(ix, nil)
	gate := &gatedDB{DB: counting, release: make(chan struct{})}
	pipe, err := batch.New(gate, batch.Options{
		Coalesce: batch.CoalesceLSH,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}

	base := vec.RandomGaussian(vec.NewRand(77), 8)
	near := vec.Clone(base)
	near[0] += 1e-6 // byte-distinct, signature-identical w.h.p.

	const pairs = 16
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		for _, q := range []vec.Vector{base, near} {
			wg.Add(1)
			go func(q vec.Vector) {
				defer wg.Done()
				if _, err := pipe.Search(q, 3); err != nil {
					t.Error(err)
				}
			}(q)
		}
	}
	// Hold the database until every request has entered the pipeline,
	// so the requests overlap in flight however fast the index is.
	deadline := time.Now().Add(10 * time.Second)
	for pipe.Stats().Searches != 2*pairs && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	close(gate.release)
	wg.Wait()

	st := pipe.Stats()
	if st.Searches != 2*pairs {
		t.Fatalf("Searches = %d, want %d", st.Searches, 2*pairs)
	}
	// Concurrency makes the exact coalesce count scheduling-dependent,
	// but byte-distinct near-duplicates can only coalesce via the LSH
	// signature, so any coalescing at all proves the mode works.
	if st.Coalesced == 0 {
		t.Error("no LSH coalescing observed across 32 near-identical concurrent misses")
	}
	if got := int64(counting.Calls()); got != st.Searches-st.Coalesced {
		t.Errorf("database calls = %d, uncoalesced searches = %d (should match)", got, st.Searches-st.Coalesced)
	}
}

// TestPipelineIsADB pins the vectordb.DB passthrough surface.
func TestPipelineIsADB(t *testing.T) {
	ix := buildIVF(t, 50, 8, 17)
	pipe, err := batch.New(ix, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var db vectordb.DB = pipe
	if db.Dim() != ix.Dim() || db.Len() != ix.Len() {
		t.Errorf("passthrough Dim/Len = %d/%d, want %d/%d", db.Dim(), db.Len(), ix.Dim(), ix.Len())
	}
}

// gatedDB holds every search until release closes.
type gatedDB struct {
	vectordb.DB
	release chan struct{}
}

func (g *gatedDB) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	<-g.release
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
// shard.FingerprintOf values are equal (the first pair a search over
// {i, 1}, i = 0, 1, 2, ... meets), so exact-mode coalescing meets a real
// collision.
func fingerprintCollision(t *testing.T) (vec.Vector, vec.Vector) {
	t.Helper()
	a, b := vec.Vector{110909, 1}, vec.Vector{1048599, 1}
	if shard.FingerprintOf(a) != shard.FingerprintOf(b) {
		t.Fatal("the pair's fingerprints do not collide")
	}
	return a, b
}

// TestPipelineCounters pins what the counters mean over a failing
// database: n concurrent duplicates of one query plus one fingerprint
// collision are n+1 searches, of which only the leader's and the
// collision's reach the database. Both fail, so Errors and the db_search
// histogram count those two; followers receive the leader's error
// without searching. Reset zeroes every counter, Errors included.
func TestPipelineCounters(t *testing.T) {
	const n = 8
	q, collider := fingerprintCollision(t)
	db := &failingDB{entered: make(chan struct{}, n+1), release: make(chan struct{})}
	tel := telemetry.New(telemetry.Options{})
	pipe, err := batch.New(db, batch.Options{Telemetry: tel})
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
	if st.Searches != n+1 || st.Coalesced != n-1 || st.Collisions != 1 || searched != 2 {
		t.Fatalf("stats = %+v, want %d searches, %d coalesced, 1 collision", st, n+1, n-1)
	}
	if st.Errors != searched {
		t.Errorf("Errors = %d, want leads + collisions = %d", st.Errors, searched)
	}
	if got := tel.Stages.Histogram(telemetry.StageDBSearch).Count(); got != searched {
		t.Errorf("db_search observations = %d, want leads + collisions = %d", got, searched)
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
	pipe, err := batch.New(ix, batch.Options{})
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
