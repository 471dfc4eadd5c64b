package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"proximity/internal/core"
)

// countingCache counts the server's reads of the cache it wraps.
type countingCache struct {
	core.Cache
	stats, len, capacity atomic.Int64
}

func (c *countingCache) Stats() core.Stats { c.stats.Add(1); return c.Cache.Stats() }
func (c *countingCache) Len() int          { c.len.Add(1); return c.Cache.Len() }
func (c *countingCache) Capacity() int     { c.capacity.Add(1); return c.Cache.Capacity() }

// reads returns the counts since the last call and zeroes them.
func (c *countingCache) reads() [3]int64 {
	return [3]int64{c.stats.Swap(0), c.len.Swap(0), c.capacity.Swap(0)}
}

// TestOneCacheReadPerRequest: one /metrics scrape and one /v1/stats
// request each read the cache once — one Stats, Len and Capacity — on
// every cache shape, so that the numbers one response shows, the index
// and tier blocks included, come from one pass over the cache.
func TestOneCacheReadPerRequest(t *testing.T) {
	const dim = 16
	for name, newCache := range cacheShapes(t, dim) {
		t.Run(name, func(t *testing.T) {
			var counted *countingCache
			ts, _, docs := serveCache(t, dim, 12, func() (core.Cache, error) {
				inner, err := newCache()
				if c, ok := inner.(io.Closer); ok {
					t.Cleanup(func() { c.Close() })
				}
				counted = &countingCache{Cache: inner}
				return counted, err
			}, false)
			client := NewClient(ts.URL)
			for _, q := range append(docs, docs[:4]...) {
				if _, err := client.Retrieve(q); err != nil {
					t.Fatal(err)
				}
			}
			for _, path := range []string{"/metrics", "/v1/stats"} {
				counted.reads()
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				drainClose(resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d", path, resp.StatusCode)
				}
				if got := counted.reads(); got != [3]int64{1, 1, 1} {
					t.Errorf("%s read the cache %d Stats, %d Len, %d Capacity; want 1 each",
						path, got[0], got[1], got[2])
				}
			}
		})
	}
}

// TestStatsHitsAddUp: while two clients hit, miss and fill a sharded
// tiered cache, every /v1/stats response has hits == tiers.hotHits +
// tiers.warmHits, because the response renders one Stats() snapshot.
func TestStatsHitsAddUp(t *testing.T) {
	const dim = 16
	ts, _, docs := serveCache(t, dim, 12, cacheShapes(t, dim)["sharded-tiered"], false)
	client := NewClient(ts.URL)
	// One miss and then a hit of the same query before any concurrency,
	// so that the final Hits ≥ 1 does not depend on scheduling.
	for i, wantHit := range []bool{false, true} {
		res, err := client.Retrieve(docs[0])
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit != wantHit {
			t.Fatalf("warm-up retrieve %d: hit %v, want %v", i, res.Hit, wantHit)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := client.Retrieve(docs[i%len(docs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var st StatsResponse
	for i := 0; i < 200; i++ {
		var err error
		if st, err = client.Stats(); err != nil {
			t.Fatal(err)
		}
		if st.Tiers == nil {
			t.Fatalf("response %d has no tiers block", i)
		}
		if st.Hits != st.Tiers.HotHits+st.Tiers.WarmHits {
			t.Fatalf("response %d: hits %d != hotHits %d + warmHits %d", i, st.Hits, st.Tiers.HotHits, st.Tiers.WarmHits)
		}
	}
	if st.Hits == 0 {
		t.Error("the traffic never hit")
	}
}

// TestConcurrentScrapes: scrapes overlapping each other and live traffic
// each render a complete exposition with the cache counters in it.
func TestConcurrentScrapes(t *testing.T) {
	const dim = 16
	ts, _, docs := serveCache(t, dim, 12, cacheShapes(t, dim)["sharded-tiered"], false)
	client := NewClient(ts.URL)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := client.Retrieve(docs[(g+i)%len(docs)]); err != nil {
					t.Error(err)
					return
				}
				body, err := client.Metrics()
				if err != nil {
					t.Error(err)
					return
				}
				for _, series := range []string{"proximity_cache_hits_total ", "proximity_tier_warm_entries "} {
					if !strings.Contains(body, "\n"+series) {
						t.Errorf("scrape lacks %s", series)
					}
				}
			}
		}()
	}
	wg.Wait()
}
