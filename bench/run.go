package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"proximity/internal/stats"
	"proximity/internal/vec"
)

// record is one completed request as its client saw it.
type record struct {
	hit     bool
	overlap uint8 // |served ∩ exact top-K|
	lat     time.Duration
	done    time.Duration // completion, since the pass began
}

// runResult is one pass of the closed loop over a stream segment.
type runResult struct {
	records   []record
	wall      time.Duration
	attempted int
	failed    int   // requests that returned an error or a wrong answer
	firstErr  error // the first such failure, for the report
}

// run drives the system with `clients` closed-loop workers drawing
// consecutive stream indices from s.next on. It stops handing out
// indices once `limit` have been drawn (limit > 0) or `d` has passed
// (limit == 0), and returns when every request in flight has completed.
func (s *system) run(d time.Duration, limit int) runResult {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		per  [clients]runResult
	)
	next.Store(int64(s.next))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &per[c]
			p := s.in.p
			buf := make(vec.Vector, p.dim)
			scratch := make([]vec.Scored, 0, p.docsPerCentre)
			for {
				i := int(next.Add(1)) - 1
				if limit > 0 && i >= s.next+limit || limit == 0 && time.Since(start) >= d {
					return
				}
				centre := s.in.query(s.w.stream, i, buf)
				if s.tr != nil {
					s.tr.begin(c, i, buf)
				}
				t0 := time.Now()
				docs, hit, err := s.call(c, buf)
				t1 := time.Now()
				if s.tr != nil {
					s.tr.root(i, t0, t1, hit)
				}
				out.attempted++
				exact := s.in.exactTopK(buf, centre, scratch)
				if err == nil {
					err = checkDocs(docs, hit, exact, len(s.in.corpus))
				}
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("query %d: %w", i, err)
					}
					continue
				}
				out.records = append(out.records, record{hit: hit, overlap: overlap(docs, exact), lat: t1.Sub(t0), done: t1.Sub(start)})
			}
		}(c)
	}
	wg.Wait()
	res := runResult{wall: time.Since(start)}
	for c := range per {
		res.records = append(res.records, per[c].records...)
		res.attempted += per[c].attempted
		res.failed += per[c].failed
		if res.firstErr == nil {
			res.firstErr = per[c].firstErr
		}
	}
	s.next += res.attempted
	return res
}

func hitCount(records []record) int {
	var n int
	for _, r := range records {
		if r.hit {
			n++
		}
	}
	return n
}

// checkDocs is the per-response output check: exactly K distinct
// in-range ids, and on a miss — which serves the index's own answer —
// exactly the ground-truth top-K in order.
func checkDocs(docs []int, hit bool, exact []vec.Scored, corpus int) error {
	if len(docs) != len(exact) {
		return fmt.Errorf("served %d documents, want %d", len(docs), len(exact))
	}
	for a, id := range docs {
		if id < 0 || id >= corpus {
			return fmt.Errorf("document id %d out of range", id)
		}
		for _, other := range docs[:a] {
			if other == id {
				return fmt.Errorf("document id %d served twice", id)
			}
		}
		if !hit && id != exact[a].ID {
			return fmt.Errorf("miss served %v, exact top-K is %v", docs, vec.IDs(exact))
		}
	}
	return nil
}

func overlap(docs []int, exact []vec.Scored) uint8 {
	var n uint8
	for _, id := range docs {
		for _, e := range exact {
			if e.ID == id {
				n++
				break
			}
		}
	}
	return n
}

// checkAccounting compares what the clients saw with what the cache
// counted: hits and misses from responses must equal the cache's own
// Stats() deltas, and every miss must have filled the cache once.
func (s *system) checkAccounting(res runResult) error {
	hits := int64(hitCount(res.records))
	misses := int64(len(res.records)) - hits
	if res.failed > 0 {
		return fmt.Errorf("%d of %d requests failed, first: %w", res.failed, res.attempted, res.firstErr)
	}
	st := s.cache.Stats()
	if got := st.Hits - s.base.Hits; got != hits {
		return fmt.Errorf("responses report %d hits, cache counted %d", hits, got)
	}
	if got := st.Misses - s.base.Misses; got != misses {
		return fmt.Errorf("responses report %d misses, cache counted %d", misses, got)
	}
	if got := st.Puts - s.base.Puts; got != misses {
		return fmt.Errorf("%d misses but %d cache fills", misses, got)
	}
	return nil
}

// metric is one named number of the printout, with the count of
// samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string, n int) {
	m[name] = metric{Value: value, Unit: unit, N: n}
}

// A run's measuring time is cut into `windows` equal slices and every
// timing is computed per slice. The value reported is the best slice,
// not the median one, because on a shared host the noise is one-sided
// and lasts seconds: a neighbour flushing the last-level cache slows a
// stretch of windows by up to 2× and never speeds one up, whereas a
// change to the code moves every window. README.md has the
// measurements behind the choice.
const windows = 20

// endToEnd computes the metrics a caller of the system would see from
// an untraced pass of length d. Latency is split by outcome because its
// distribution is bimodal: an overall median would jump when hit_rate
// crosses one half. Requests that complete after d belong to no window
// and count towards hit_rate and recall_at_k only.
func (s *system) endToEnd(res runResult, d time.Duration) metrics {
	var (
		hit, miss [windows][]float64
		count     [windows]float64
		last      [windows]time.Duration // latest completion in the window
		found     int
	)
	for _, r := range res.records {
		found += int(r.overlap)
		w := int(r.done * windows / d)
		if w >= windows {
			continue
		}
		count[w]++
		last[w] = max(last[w], r.done)
		if r.hit {
			hit[w] = append(hit[w], micros(r.lat))
		} else {
			miss[w] = append(miss[w], micros(r.lat))
		}
	}
	n := len(res.records)

	m := metrics{}
	// A window's throughput is its completions over the time from the
	// previous window's last completion to its own: a count over the
	// nominal window length would be a whole number.
	var qps float64
	var prev time.Duration
	for w := range count {
		if count[w] > 0 {
			qps = max(qps, count[w]/(last[w]-prev).Seconds())
			prev = last[w]
		}
	}
	m.set("throughput_qps", qps, "1/s", n)
	for _, l := range []struct {
		name    string
		samples [windows][]float64
		q       float64
	}{
		{"hit_p50_us", hit, 0.5}, {"hit_p95_us", hit, 0.95},
		{"miss_p50_us", miss, 0.5}, {"miss_p95_us", miss, 0.95},
	} {
		best, samples := math.Inf(1), 0
		for _, w := range l.samples {
			if len(w) > 0 {
				best = min(best, quantile(w, l.q))
				samples += len(w)
			}
		}
		if samples == 0 {
			best = 0
		}
		m.set(l.name, best, "us", samples)
	}
	m.set("hit_rate", float64(hitCount(res.records))/float64(n), "ratio", n)
	m.set("recall_at_k", float64(found)/float64(n*s.in.p.k), "ratio", n)
	return m
}

// liveHeapMB is the heap the system under test holds once a run is
// over: live bytes now, minus live bytes when only the inputs existed.
// The caller must have dropped the run's records first.
func (s *system) liveHeapMB() float64 {
	now := liveHeap()
	runtime.KeepAlive(s)
	return (float64(now) - float64(s.heap0)) / 1e6
}

// quantile is stats.Percentile on a 0–1 scale; 0 when the sample is
// empty.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Percentile(xs, 100*q)
	if err != nil {
		return 0
	}
	return v
}
