// Package perfguard holds the allocation-budget regression tests for
// the //proximity:hotpath functions. The static side of the contract is
// proximity-vet's hotpathalloc analyzer; these tests are the dynamic
// side — they pin the actual per-call allocation counts so a regression
// that slips past the analyzer (an allocation inside a callee, an
// escape-analysis change) still fails CI.
//
// Budgets: hnsw.SearchInto and vec.Heads.Next are allocation-free in
// steady state; FlatCache.Get, IndexedCache.Get, and the tiered hot-hit
// and FIFO warm-hit lookups are allowed exactly their one documented
// caller-owned docs copy, as is an evicting FlatCache.Put (its copy of
// the caller's docs); an LRU warm hit three (the docs copy and the hot
// tier's copies of the promoted key and docs); FlatIndex.Search — the
// miss path — its result slice; server.DecodeF32 — every HTTP
// request — the embedding it returns; and one loopback
// server.Client.Retrieve hit, both ends of the connection counted,
// clientRetrieveBudget.
package perfguard

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http/httptest"
	"testing"

	"proximity/internal/core"
	"proximity/internal/hnsw"
	"proximity/internal/server"
	"proximity/internal/tier"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

const dim = 32

// testVec builds a deterministic unit-ish vector for slot i.
func testVec(i int) vec.Vector {
	v := make(vec.Vector, dim)
	for j := range v {
		v[j] = float32((i*31+j*7)%13) / 13
	}
	return v
}

func checkBudget(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under -race")
	}
	// One warm-up call settles pools and grow-once buffers before
	// counting.
	f()
	if allocs := testing.AllocsPerRun(200, f); allocs > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.0f", name, allocs, budget)
	}
}

func TestSearchIntoAllocFree(t *testing.T) {
	ix, err := hnsw.New(dim, vec.L2Distance, hnsw.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := ix.Add(testVec(i)); err != nil {
			t.Fatal(err)
		}
	}
	q := testVec(17)
	dst := make([]vec.Scored, 0, 64)
	checkBudget(t, "hnsw.SearchInto", 0, func() {
		dst = dst[:0]
		if _, err := ix.SearchInto(dst, q, 8, 32); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFlatGetBudget(t *testing.T) {
	c, err := core.NewFlat(dim, core.Options{Capacity: 64, Tolerance: 10, Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		c.Put(testVec(i), []int{i, i + 1})
	}
	q := testVec(5)
	checkBudget(t, "FlatCache.Get", 1, func() {
		if _, ok := c.Get(q); !ok {
			t.Fatal("expected a hit")
		}
	})
}

// TestFlatPutBudget pins a Put into a full cache, which evicts: the
// caller's docs copy is its only allocation — the key goes into the
// slab row the victim vacated.
func TestFlatPutBudget(t *testing.T) {
	const capacity = 64
	c, err := core.NewFlat(dim, core.Options{Capacity: capacity, Tolerance: 10, Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]vec.Vector, 2*capacity)
	for i := range keys {
		keys[i] = testVec(i)
		c.Put(keys[i], []int{i, i + 1})
	}
	docs := []int{1, 2}
	i := 0
	checkBudget(t, "FlatCache.Put", 1, func() {
		c.Put(keys[i%len(keys)], docs)
		i++
	})
	if s := c.Stats(); s.Evictions < 200 {
		t.Errorf("%d evictions: the budgeted Puts did not all evict", s.Evictions)
	}
}

// TestIndexedGetBudget pins both lookup regimes: the sub-crossover
// exact scan and the graph beam search.
func TestIndexedGetBudget(t *testing.T) {
	for name, crossover := range map[string]int{"scan": 1 << 20, "graph": 4} {
		t.Run(name, func(t *testing.T) {
			c, err := core.NewIndexed(dim, core.IndexedOptions{
				Capacity: 64, Tolerance: 10, Policy: core.LRU,
				Crossover: crossover, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 32; i++ {
				c.Put(testVec(i), []int{i, i + 1})
			}
			q := testVec(5)
			checkBudget(t, "IndexedCache.Get/"+name, 1, func() {
				if _, ok := c.Get(q); !ok {
					t.Fatal("expected a hit")
				}
			})
		})
	}
}

// TestTierHotHitBudget pins the tiered lookup's hot-hit path: the
// TierGet docs copy is the only allocation — in particular the deferred
// Commit must not cost a closure allocation per hit.
func TestTierHotHitBudget(t *testing.T) {
	tc, err := tier.New(dim, tier.Options{
		HotCapacity: 64, WarmCapacity: 128, Tolerance: 10,
		Policy: core.FIFO, Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	for i := 0; i < 32; i++ {
		tc.Put(testVec(i), []int{i, i + 1})
	}
	q := testVec(5)
	checkBudget(t, "TieredCache.Get (hot hit)", 1, func() {
		if _, ok := tc.Get(q); !ok {
			t.Fatal("expected a hot hit")
		}
	})
}

// TestTierWarmHitBudget pins the tiered lookup's warm-hit path, on keys
// the hot tier cannot admit. A FIFO warm hit is served in place: the docs
// copy is its only allocation — the warm scan reads records in place. An
// LRU warm hit also promotes the entry: the hot tier copies its key and
// docs straight out of the warm slot, with no intermediate clone, and
// the demoted hot entry moves into the warm tier without allocating.
func TestTierWarmHitBudget(t *testing.T) {
	for _, c := range []struct {
		policy core.Policy
		budget float64
	}{{core.FIFO, 1}, {core.LRU, 3}} {
		t.Run(c.policy.String(), func(t *testing.T) {
			const hot, n = 4, 32
			tc, err := tier.New(dim, tier.Options{
				HotCapacity: hot, WarmCapacity: 64, Tolerance: 1,
				Policy: c.policy, Dir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tc.Close()
			keys := make([]vec.Vector, n)
			for i := range keys {
				keys[i] = testVec(i)
				keys[i][0] += float32(10 * i) // 10 apart: no key admits another's query
				tc.Put(keys[i], []int{i, i + 1})
			}
			// Cycling through the n−hot keys that start warm asks for each
			// again only after n−hot other lookups, by when an LRU
			// promotion has been demoted again.
			i := 0
			checkBudget(t, "TieredCache.Get (warm hit, "+c.policy.String()+")", c.budget, func() {
				if _, ok := tc.Get(keys[i%(n-hot)]); !ok {
					t.Fatal("expected a warm hit")
				}
				i++
			})
			if st := tc.TierStats(); st.HotHits != 0 || st.WarmHits < 200 {
				t.Errorf("%d hot and %d warm hits: the budgeted lookups were not all warm", st.HotHits, st.WarmHits)
			}
		})
	}
}

// TestNextHeadAllocFree pins the dense head scan under both caches'
// hits: a pass over 63 rows (whole blocks of eight and a partial last
// block) that resumes after every survivor, mid-block too, allocates
// nothing.
func TestNextHeadAllocFree(t *testing.T) {
	const rows = 63
	q := testVec(0)
	heads := vec.NewHeads(len(q), rows)
	bounds := make([]float32, rows)
	for i := range bounds {
		heads.Set(i, testVec(i))
		bounds[i] = float32(i % 3) // some rows survive, most do not
	}
	limit := float32(math.Inf(1))
	survivors := 0
	scan := func() {
		survivors = 0
		var cur vec.HeadCursor
		for i := 0; i < rows; i++ {
			if i = heads.Next(&cur, q, bounds, i, limit); i < rows {
				survivors++
			}
		}
	}
	if scan(); survivors == 0 || survivors == rows {
		t.Fatalf("%d of %d rows survive: the pass does not both skip and resume", survivors, rows)
	}
	checkBudget(t, "vec.Heads.Next", 0, scan)
}

// TestFlatIndexSearchBudget pins the miss path's index scan: the result
// slice is its only allocation — the selection heaps and the L2 seeding
// scratch, seedsPerK·k seeds wide, are pooled, and both sorts run in
// place. The vectors span at least vec.HeadLen floats and the corpus
// more than seedsPerK·k rows, so the seeding pass runs.
func TestFlatIndexSearchBudget(t *testing.T) {
	ix, err := vectordb.NewFlatIndex(dim, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := ix.Add(testVec(i)); err != nil {
			t.Fatal(err)
		}
	}
	q := testVec(17)
	checkBudget(t, "FlatIndex.Search", 1, func() {
		if _, err := ix.Search(q, 8); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeF32Budget pins the wire decoder at the benchmark's width: a
// 768-d body costs the returned embedding and nothing else — the byte
// buffer is pooled and the http.MaxBytesReader in front of it stays on
// the stack.
func TestDecodeF32Budget(t *testing.T) {
	const wireDim = 768
	wire := make([]byte, 0, 4*wireDim)
	for i := 0; i < wireDim; i++ {
		wire = binary.LittleEndian.AppendUint32(wire, math.Float32bits(float32(i)/wireDim))
	}
	r := bytes.NewReader(wire)
	body := io.NopCloser(r)
	checkBudget(t, "server.DecodeF32", 1, func() {
		r.Reset(wire)
		if q, err := server.DecodeF32(nil, body, wireDim, 1); err != nil || len(q) != wireDim {
			t.Fatalf("%d floats, err %v", len(q), err)
		}
	})
}

// clientRetrieveBudget is what one loopback hit measured when the
// client's round trip moved onto the calling goroutine (net/http's
// client transport cost 112).
const clientRetrieveBudget = 63

// TestClientRetrieveBudget pins one loopback HTTP hit at the benchmark's
// width: server.Client.Retrieve of a cached 768-d key against
// server.New's handler, counted on both sides of the connection
// (AllocsPerRun counts every goroutine's allocations) — the request
// write and response parse, the handler's decode, cache hit and JSON
// reply, and the client's decode.
func TestClientRetrieveBudget(t *testing.T) {
	const wireDim = 768
	q := make(vec.Vector, wireDim)
	for i := range q {
		q[i] = float32(i%13) / 13
	}
	db, err := vectordb.NewFlatFromVectors([]vec.Vector{q}, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.NewFlat(wireDim, core.Options{Capacity: 8, Tolerance: 1, Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Retriever: retr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := server.NewClient(ts.URL)
	defer client.Close()
	if _, err := client.Retrieve(q); err != nil { // the miss that fills the cache
		t.Fatal(err)
	}
	checkBudget(t, "server.Client.Retrieve (loopback hit)", clientRetrieveBudget, func() {
		if resp, err := client.Retrieve(q); err != nil || !resp.Hit {
			t.Fatalf("hit %v, err %v", resp.Hit, err)
		}
	})
}
