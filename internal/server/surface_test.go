package server

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"proximity/internal/batch"
	"proximity/internal/core"
	"proximity/internal/rebalance"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/surface.golden.json from this run")

// leLabel matches a histogram bucket's le label, with the comma before it.
var leLabel = regexp.MustCompile(`,?le="[^"]*"`)

// surface is what an operator sees of one server after a fixed stream of
// traffic: the /v1/stats document, and the /metrics series.
type surface struct {
	// Stats is the /v1/stats body without index.repairNanos, a wall-clock
	// total.
	Stats map[string]any `json:"stats"`
	// Series is every /metrics series as name{labels}, sorted, with the
	// histogram le label folded away. Cache, index, tier and batch series
	// carry their value too; runtime and latency values vary by run.
	Series []string `json:"series"`
}

// TestStatsAndMetricsSurface pins the keys and values of /v1/stats and
// the series set of /metrics, for every cache shape, a retriever without
// a cache, a miss path through the batch pipeline and a rebalance
// controller, against testdata/surface.golden.json.
func TestStatsAndMetricsSurface(t *testing.T) {
	const dim = 16
	type scenario struct {
		newCache   func() (core.Cache, error)
		pipeline   bool
		rebalancer Rebalancer
	}
	shapes := cacheShapes(t, dim)
	scenarios := map[string]scenario{
		"no-cache":      {newCache: func() (core.Cache, error) { return nil, nil }},
		"flat+pipeline": {newCache: shapes["flat"], pipeline: true},
		"flat+rebalancer": {newCache: shapes["flat"], rebalancer: &fakeRebalancer{stats: rebalance.Stats{
			Samples: 7, Breaches: 3, Triggers: 2, Rebalances: 1, Declined: 1,
			LastSample:  rebalance.Sample{Imbalance: 1.8, Entries: 500},
			LastOutcome: rebalance.Outcome{Acted: true, Before: 2.1, After: 1.2, Moved: 42, Detail: "reseed"},
		}}},
	}
	for name, newCache := range shapes {
		scenarios[name] = scenario{newCache: newCache}
	}

	got := map[string]surface{}
	for name, sc := range scenarios {
		got[name] = readSurface(t, dim, sc.newCache, sc.pipeline, sc.rebalancer)
	}
	golden := filepath.Join("testdata", "surface.golden.json")
	if *updateSurface {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]surface
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d scenarios, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if !reflect.DeepEqual(g.Stats, w.Stats) {
			gs, _ := json.MarshalIndent(g.Stats, "", "  ")
			ws, _ := json.MarshalIndent(w.Stats, "", "  ")
			t.Errorf("%s: /v1/stats\n%s\nwant\n%s", name, gs, ws)
		}
		if !reflect.DeepEqual(g.Series, w.Series) {
			t.Errorf("%s: /metrics series\n%s\nwant\n%s", name,
				strings.Join(g.Series, "\n"), strings.Join(w.Series, "\n"))
		}
	}
}

// readSurface serves newCache's cache (nil: none) in front of 40 random
// documents, asks for each once and the last four again, one request at a
// time, and reads what /v1/stats and /metrics then say.
func readSurface(t *testing.T, dim int, newCache func() (core.Cache, error), pipeline bool, reb Rebalancer) surface {
	t.Helper()
	db, err := vectordb.NewFlatIndex(dim, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(7)
	docs := make([]vec.Vector, 40)
	for i := range docs {
		docs[i] = vec.Scale(vec.RandomGaussian(rng, dim), 4)
		if err := db.Add(docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := newCache()
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := cache.(interface{ Close() error }); ok {
		t.Cleanup(func() { c.Close() })
	}
	opts := core.RetrieverOptions{K: 2}
	if pipeline {
		pipe, err := batch.New(db, batch.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Searcher = pipe
	}
	retr, err := core.NewCachedRetriever(cache, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Retriever: retr, Rebalancer: reb})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL)
	for _, q := range append(append([]vec.Vector{}, docs...), docs[36:]...) {
		if _, err := client.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}

	var out surface
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp.Body)
	if err := json.NewDecoder(resp.Body).Decode(&out.Stats); err != nil {
		t.Fatal(err)
	}
	if index, ok := out.Stats["index"].(map[string]any); ok {
		delete(index, "repairNanos")
	}

	exposition, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series, value := leLabel.ReplaceAllString(line[:i], ""), line[i+1:]
		series = strings.TrimSuffix(series, "{}")
		for _, family := range []string{"proximity_cache_", "proximity_index_", "proximity_tier_", "proximity_batch_"} {
			if strings.HasPrefix(series, family) {
				series += " " + value
			}
		}
		seen[series] = true
	}
	for series := range seen {
		out.Series = append(out.Series, series)
	}
	sort.Strings(out.Series)
	return out
}
