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

// countingCache counts the server's reads of the cache it wraps. It
// reports index and tier blocks whether or not the wrapped cache has
// them, so every read the server could make is counted.
type countingCache struct {
	core.Cache
	stats, len, capacity, index, tiers atomic.Int64
}

func (c *countingCache) Stats() core.Stats { c.stats.Add(1); return c.Cache.Stats() }
func (c *countingCache) Len() int          { c.len.Add(1); return c.Cache.Len() }
func (c *countingCache) Capacity() int     { c.capacity.Add(1); return c.Cache.Capacity() }

func (c *countingCache) IndexStats() core.IndexStats {
	c.index.Add(1)
	if is, ok := c.Cache.(core.IndexStatser); ok {
		return is.IndexStats()
	}
	return core.IndexStats{}
}

func (c *countingCache) TierStats() core.TierStats {
	c.tiers.Add(1)
	if ts, ok := c.Cache.(core.TierStatser); ok {
		return ts.TierStats()
	}
	return core.TierStats{}
}

// reads returns the counts since the last call and zeroes them.
func (c *countingCache) reads() [5]int64 {
	return [5]int64{c.stats.Swap(0), c.len.Swap(0), c.capacity.Swap(0), c.index.Swap(0), c.tiers.Swap(0)}
}

// TestOneCacheReadPerRequest: one /metrics scrape and one /v1/stats
// request each read the cache once — one Stats, Len and Capacity, and
// at most one IndexStats and TierStats — on every cache shape, so that
// the numbers one response shows come from one pass over the cache.
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
			})
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
				got := counted.reads()
				if got[0] != 1 || got[1] != 1 || got[2] != 1 || got[3] > 1 || got[4] > 1 {
					t.Errorf("%s read the cache %d Stats, %d Len, %d Capacity, %d IndexStats, %d TierStats; want 1, 1, 1, ≤1, ≤1",
						path, got[0], got[1], got[2], got[3], got[4])
				}
			}
		})
	}
}

// TestConcurrentScrapes: scrapes overlapping each other and live traffic
// each render a complete exposition with the cache counters in it.
func TestConcurrentScrapes(t *testing.T) {
	const dim = 16
	ts, _, docs := serveCache(t, dim, 12, cacheShapes(t, dim)["sharded-tiered"])
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
