package server

import (
	"net/http/httptest"
	"testing"

	"proximity/internal/batch"
	"proximity/internal/core"
	"proximity/internal/embed"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// TestStatsBatchFields: a retriever whose miss path runs through the
// miss-coalescing pipeline surfaces its counters on /v1/stats; a plain
// retriever omits the block entirely.
func TestStatsBatchFields(t *testing.T) {
	const dim = 32
	enc := embed.NewTokenHash(dim, 1)
	db, err := vectordb.NewFlatIndex(dim, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"aspirin heart attack prevention dosage",
		"ibuprofen inflammation joint pain",
		"melatonin sleep circadian rhythm",
	}
	for _, p := range texts {
		if err := db.Add(enc.Embed(p)); err != nil {
			t.Fatal(err)
		}
	}
	pipe, err := batch.New(db, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.NewFlat(dim, core.Options{Capacity: 8, Tolerance: 1, Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: 2, Searcher: pipe})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Retriever: retr, Embedder: enc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)

	for _, p := range texts { // all distinct → all misses → all searched
		if _, err := client.Query(p); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batch == nil {
		t.Fatal("stats payload has no batch block despite a batch pipeline searcher")
	}
	if st.Batch.Searches != int64(len(texts)) {
		t.Errorf("batch.searches = %d, want %d", st.Batch.Searches, len(texts))
	}
	if st.Batch.Errors != 0 {
		t.Errorf("batch.errors = %d, want 0", st.Batch.Errors)
	}

	// Control: no pipeline, no batch block.
	plain, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Retriever: plain, Embedder: enc})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	st2, err := NewClient(ts2.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Batch != nil {
		t.Error("plain retriever should omit the batch stats block")
	}
}
