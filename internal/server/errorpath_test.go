package server

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"proximity/internal/core"
	"proximity/internal/embed"
	"proximity/internal/shard"
	"proximity/internal/tier"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// flakyDB wraps a DB, failing every Search while broken is set — the
// backend-outage shape whose status code the cluster retry logic keys on.
type flakyDB struct {
	vectordb.DB
	broken atomic.Bool
}

var errBackendDown = errors.New("backend connection lost")

func (f *flakyDB) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	if f.broken.Load() {
		return nil, errBackendDown
	}
	return f.DB.Search(q, k)
}

// newFlakyServer wires a middleware over a switchable-failure backend.
func newFlakyServer(t *testing.T) (*httptest.Server, *flakyDB, embed.Embedder) {
	t.Helper()
	const dim = 32
	enc := embed.NewTokenHash(dim, 1)
	db, err := vectordb.NewFlatIndex(dim, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"aspirin dosage", "ibuprofen pain", "melatonin sleep"} {
		if err := db.Add(enc.Embed(p)); err != nil {
			t.Fatal(err)
		}
	}
	flaky := &flakyDB{DB: db}
	retr, err := core.NewCachedRetriever(nil, flaky, core.RetrieverOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Retriever: retr, Embedder: enc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, flaky, enc
}

// TestRetrieveErrorStatus: malformed input (wrong dimensionality) is the
// caller's fault → 400; a backend failure is the server's fault → 500.
// Before the fix every Retrieve error mapped to 400, so a cluster client
// could not tell "this query is bad everywhere" from "this node is sick,
// try the next replica".
func TestRetrieveErrorStatus(t *testing.T) {
	ts, flaky, enc := newFlakyServer(t)
	client := NewClient(ts.URL)

	// Wrong dimensionality → 400.
	_, err := client.Retrieve([]float32{1, 2, 3})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("dimension mismatch: got %v, want StatusError 400", err)
	}

	// Backend failure → 500.
	flaky.broken.Store(true)
	_, err = client.Retrieve(enc.Embed("aspirin dosage"))
	if !errors.As(err, &se) || se.Code != 500 {
		t.Fatalf("backend failure: got %v, want StatusError 500", err)
	}

	// Recovery: the same query succeeds once the backend is back.
	flaky.broken.Store(false)
	if _, err := client.Retrieve(enc.Embed("aspirin dosage")); err != nil {
		t.Fatalf("recovered backend: %v", err)
	}
}

// TestWrongLengthQueryIs400: a query of the wrong dimensionality is
// refused with 400 whatever cache sits in front of the database, on the
// single and the batched endpoint, and the server keeps serving. With a
// cache in place the query used to reach the cache's distance kernel (or
// the LSH hasher), which panics on a length mismatch — on the batched
// endpoint in a goroutine of its own, taking the process down.
func TestWrongLengthQueryIs400(t *testing.T) {
	const dim = 32
	enc := embed.NewTokenHash(dim, 1)
	good := enc.Embed("aspirin dosage")
	caches := map[string]func() (core.Cache, error){
		"flat": func() (core.Cache, error) {
			return core.NewFlat(dim, core.Options{Capacity: 8, Tolerance: 1})
		},
		"lsh": func() (core.Cache, error) {
			return core.NewLSH(dim, core.LSHOptions{Bits: 4, Tolerance: 1, Seed: 1})
		},
		"tiered": func() (core.Cache, error) {
			return tier.New(dim, tier.Options{HotCapacity: 2, WarmCapacity: 8, Tolerance: 1, Dir: t.TempDir()})
		},
		"sharded-flat": func() (core.Cache, error) {
			return shard.NewFlat(dim, 2, core.Options{Capacity: 8, Tolerance: 1}, 1)
		},
		"sharded-lsh": func() (core.Cache, error) {
			return shard.NewLSH(dim, 2, core.LSHOptions{Bits: 4, Tolerance: 1, Seed: 1})
		},
	}
	for name, newCache := range caches {
		t.Run(name, func(t *testing.T) {
			db, err := vectordb.NewFlatIndex(dim, vec.L2Distance)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Add(good); err != nil {
				t.Fatal(err)
			}
			cache, err := newCache()
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := cache.(interface{ Close() error }); ok {
				t.Cleanup(func() { c.Close() })
			}
			retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: 1})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Retriever: retr})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			client := NewClient(ts.URL)

			// A resident entry, so a lookup has a key to measure against.
			if _, err := client.Retrieve(good); err != nil {
				t.Fatal(err)
			}
			var se *StatusError
			for _, bad := range [][]float32{good[:dim-1], append(vec.Clone(good), 1)} {
				if _, err := client.Retrieve(bad); !errors.As(err, &se) || se.Code != 400 {
					t.Errorf("single, %d floats: got %v, want StatusError 400", len(bad), err)
				}
				if _, err := client.RetrieveBatch([][]float32{good, bad}); !errors.As(err, &se) || se.Code != 400 {
					t.Errorf("batch, %d floats: got %v, want StatusError 400", len(bad), err)
				}
			}
			if resp, err := client.Retrieve(good); err != nil || !resp.Hit {
				t.Errorf("after the rejected queries: hit %v, err %v; want a hit", resp.Hit, err)
			}
		})
	}
}

// TestRetrieveBatchRoundTrip: the batched endpoint returns one result per
// embedding, parallel to the request, with per-item hit flags.
func TestRetrieveBatchRoundTrip(t *testing.T) {
	srv, _, enc := newTestServer(t, false, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	q1 := enc.Embed("aspirin heart attack prevention dosage")
	q2 := enc.Embed("melatonin sleep circadian rhythm")
	resp, err := client.RetrieveBatch([][]float32{q1, q2, q1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	for i, r := range resp.Results {
		if len(r.Docs) == 0 {
			t.Errorf("result %d returned no docs", i)
		}
	}
	// Elements of one batch run concurrently, so the intra-batch repeat
	// of q1 may race its twin; docs must agree regardless.
	if fmt.Sprint(resp.Results[0].Docs) != fmt.Sprint(resp.Results[2].Docs) {
		t.Errorf("repeat query changed docs: %v vs %v", resp.Results[0].Docs, resp.Results[2].Docs)
	}

	// A second batch sees the first one's fills: everything hits.
	resp, err = client.RetrieveBatch([][]float32{q1, q2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if !r.Hit {
			t.Errorf("result %d of the repeat batch should hit the warm cache", i)
		}
	}
}

// TestRetrieveBatchErrorStatus: batched retrieval classifies errors the
// same way as the single endpoint.
func TestRetrieveBatchErrorStatus(t *testing.T) {
	ts, flaky, enc := newFlakyServer(t)
	client := NewClient(ts.URL)
	good := enc.Embed("aspirin dosage")

	var se *StatusError
	if _, err := client.RetrieveBatch(nil); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("empty batch: got %v, want StatusError 400", err)
	}
	if _, err := client.RetrieveBatch([][]float32{good, {}}); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("empty embedding: got %v, want StatusError 400", err)
	}
	oversized := make([][]float32, MaxBatchElements+1)
	for i := range oversized {
		oversized[i] = good
	}
	if _, err := client.RetrieveBatch(oversized); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("oversized batch: got %v, want StatusError 400", err)
	}
	if _, err := client.RetrieveBatch([][]float32{good, {1, 2}}); !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("dimension mismatch: got %v, want StatusError 400", err)
	}
	flaky.broken.Store(true)
	if _, err := client.RetrieveBatch([][]float32{good}); !errors.As(err, &se) || se.Code != 500 {
		t.Fatalf("backend failure: got %v, want StatusError 500", err)
	}
}
