package server

import (
	"bufio"
	"strconv"
	"strings"
	"testing"

	"proximity/internal/core"
)

// cacheCounters is every cumulative counter a cache reports, by name:
// core.Stats, plus the tier counters where the cache has them. Gauges
// (entry counts, capacities, bytes) are left out — a Clear is supposed
// to move those.
func cacheCounters(c core.Cache) map[string]int64 {
	st := c.Stats()
	out := map[string]int64{
		"hits": st.Hits, "misses": st.Misses, "puts": st.Puts,
		"evictions": st.Evictions, "distComps": st.DistComps, "hashOps": st.HashOps,
	}
	if s := st.Tier; s != nil {
		out["tier.hotHits"], out["tier.warmHits"] = s.HotHits, s.WarmHits
		out["tier.promotions"], out["tier.demotions"] = s.Promotions, s.Demotions
		out["tier.warmDiscards"], out["tier.warmLookups"] = s.WarmDiscards, s.WarmLookups
		out["tier.warmScanned"], out["tier.warmPruned"] = s.WarmScanned, s.WarmPruned
	}
	return out
}

// promCounters parses the series a Prometheus exposition declares as
// counters.
func promCounters(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	isCounter := map[string]bool{}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			isCounter[f[2]] = f[3] == "counter"
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if base, _, _ := strings.Cut(name, "{"); !ok || !isCounter[base] {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("counter line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestCountersSurviveFlush: a counter only ever goes up. Across
// Cache.Clear, and across POST /v1/flush as Prometheus sees it on
// /metrics, no cumulative counter of any cache shape may fall, with the
// misses going straight to the database or through a batch pipeline —
// LSHCache used to drop its buckets' counters with the buckets, and the
// flush used to zero the pipeline's, and a scraper saw each as a counter
// reset.
func TestCountersSurviveFlush(t *testing.T) {
	const dim = 16
	for shape, newCache := range cacheShapes(t, dim) {
		for _, pipeline := range []bool{false, true} {
			name := shape
			if pipeline {
				name += "+pipeline"
			}
			t.Run(name, func(t *testing.T) {
				countersSurviveFlush(t, dim, newCache, pipeline)
			})
		}
	}
}

func countersSurviveFlush(t *testing.T, dim int, newCache func() (core.Cache, error), pipeline bool) {
	ts, cache, docs := serveCache(t, dim, 40, newCache, pipeline)
	client := NewClient(ts.URL)
	// Misses, fills and evictions well past capacity, then hits on the
	// latest entries.
	traffic := func() {
		for _, q := range append(append([][]float32{}, docs...), docs[36:]...) {
			if _, err := client.Retrieve(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	counters := func() map[string]float64 {
		exposition, err := client.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		return promCounters(t, exposition)
	}
	traffic()
	before := cacheCounters(cache)
	must := []string{"hits", "misses", "puts", "evictions", "distComps"}
	for _, counter := range must {
		if before[counter] == 0 {
			t.Errorf("%s is 0 before the flush: the traffic does not exercise it", counter)
		}
	}
	scrapeBefore := counters()
	const searches = "proximity_batch_searches_total"
	if _, ok := scrapeBefore[searches]; ok != pipeline {
		t.Fatalf("%s exported %v with a pipeline %v", searches, ok, pipeline)
	}

	cache.Clear()
	if cache.Len() != 0 {
		t.Fatalf("%d entries after Clear", cache.Len())
	}
	cleared := cacheCounters(cache)
	for counter, was := range before {
		if now := cleared[counter]; now < was {
			t.Errorf("Clear: %s went %d → %d", counter, was, now)
		}
	}

	traffic()
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	after := counters()
	for series, was := range scrapeBefore {
		now, ok := after[series]
		if !ok || now < was {
			t.Errorf("/v1/flush: %s went %v → %v (present %v)", series, was, now, ok)
		}
	}
	if len(after) < 5 {
		t.Errorf("only %d counter series parsed from /metrics", len(after))
	}
	if !pipeline {
		return
	}
	// The pipeline still searches after the flush, and counts on from
	// where it was: the emptied cache sends the next query to it.
	if res, err := client.Retrieve(docs[0]); err != nil || res.Hit {
		t.Fatalf("retrieve after the flush: hit %v, err %v; want a miss", res.Hit, err)
	}
	if was, now := after[searches], counters()[searches]; now != was+1 {
		t.Errorf("one miss after the flush: %s went %v → %v, want +1", searches, was, now)
	}
}
