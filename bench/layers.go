package main

import (
	"runtime"
	"time"

	"proximity/internal/core"
	"proximity/internal/vec"
)

// endToEndUnits and perLayerUnits list every metric of the printout
// with its unit: the ones an untraced run reports, and the ones a
// traced run reports. BENCHMARK.json names the same two sets
// (bench_test.go holds them equal), and README.md says which
// end-to-end metric each per-layer metric should move, on which
// workload. A per-layer metric of a module that is not on a workload's
// path is reported as 0 there.
var endToEndUnits = map[string]string{
	"setup_s": "s", "throughput_qps": "1/s",
	"hit_p50_us": "us", "hit_p95_us": "us", "miss_p50_us": "us", "miss_p95_us": "us",
	"hit_rate": "ratio", "recall_at_k": "ratio", "live_heap_mb": "MB",
}

var perLayerUnits = map[string]string{
	"core.get_hit_us": "us", "core.get_miss_us": "us", "core.put_us": "us",
	"core.get_ns_per_distcomp": "ns", "core.distcomps_per_get": "count", "core.evictions_per_put": "ratio",
	"core.busy_frac": "ratio", "core.retriever_self_us": "us", "core.heap_bytes_per_entry": "B",

	"shard.get_hit_us": "us", "shard.put_us": "us",
	"shard.hashops_per_get": "count", "shard.distcomps_per_get": "count",

	"tier.get_hit_p50_us": "us", "tier.get_hit_p95_us": "us", "tier.put_us": "us",
	"tier.warm_hit_frac": "ratio", "tier.warm_scanned_per_lookup": "count", "tier.warm_pruned_frac": "ratio",
	"tier.promotions_per_hit": "ratio", "tier.demotions_per_put": "ratio",

	"vectordb.search_us": "us", "vectordb.search_ns_per_vector": "ns",
	"vectordb.calls_per_request": "ratio", "vectordb.busy_frac": "ratio",

	"server.handler_self_us": "us", "server.wire_self_us": "us",
	"server.request_bytes": "B", "server.response_bytes": "B", "server.hit_busy_frac": "ratio",

	"vec.l2_768_ns": "ns", "trace.overhead_frac": "ratio",
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perLayer turns a traced pass into the per-layer metrics: median span
// and self times from the spans, counts from the deltas of the cache's
// public Stats()/TierStats() across the pass. untracedQPS is the
// throughput of the untraced pass over the same stream segment.
func (s *system) perLayer(res runResult, reqs []request, untracedQPS float64) metrics {
	t := s.tr
	var (
		getHit, getMiss, put, search, rootSelf, handlerSelf, wireSelf []float64
		sumRoot, sumGet, sumPut, sumSearch, sumRootHit, sumServerHit  time.Duration
	)
	root := t.rootKind()
	for i := range reqs {
		r := &reqs[i]
		sumRoot += r.dur(root)
		if r.has[kindGet] {
			sumGet += r.dur(kindGet)
			if r.s[kindGet].hit {
				getHit = append(getHit, micros(r.dur(kindGet)))
			} else {
				getMiss = append(getMiss, micros(r.dur(kindGet)))
			}
		}
		if r.has[kindPut] {
			sumPut += r.dur(kindPut)
			put = append(put, micros(r.dur(kindPut)))
		}
		if r.has[kindSearch] {
			sumSearch += r.dur(kindSearch)
			search = append(search, micros(r.dur(kindSearch)))
		}
		if !t.http {
			rootSelf = append(rootSelf, micros(t.self(r, root)))
			continue
		}
		wire, handler := t.self(r, kindClient), t.self(r, kindHandler)
		wireSelf = append(wireSelf, micros(wire))
		handlerSelf = append(handlerSelf, micros(handler))
		if r.s[root].hit {
			sumRootHit += r.dur(root)
			sumServerHit += wire + handler
		}
	}

	st := s.cache.Stats()
	gets := float64(len(getHit) + len(getMiss))
	puts := float64(st.Puts - s.base.Puts)
	distComps := float64(st.DistComps - s.base.DistComps)

	m := metrics{}
	for name, unit := range perLayerUnits {
		m.set(name, 0, unit, 0)
	}
	mod := s.w.module + "."
	switch s.w.module {
	case "core":
		m.set("core.get_hit_us", quantile(getHit, 0.5), "us", len(getHit))
		m.set("core.get_miss_us", quantile(getMiss, 0.5), "us", len(getMiss))
		m.set("core.get_ns_per_distcomp", ratio(float64(sumGet), distComps), "ns", int(distComps))
		m.set("core.evictions_per_put", ratio(float64(st.Evictions-s.base.Evictions), puts), "ratio", int(puts))
		m.set("core.busy_frac", ratio(float64(sumGet+sumPut), float64(sumRoot)), "ratio", len(reqs))
	case "shard":
		m.set("shard.get_hit_us", quantile(getHit, 0.5), "us", len(getHit))
		m.set("shard.hashops_per_get", ratio(float64(st.HashOps-s.base.HashOps), gets), "count", int(gets))
	case "tier":
		ts := s.cache.(core.TierStatser).TierStats()
		hot, warm := float64(ts.HotHits-s.baseT.HotHits), float64(ts.WarmHits-s.baseT.WarmHits)
		scanned, pruned := float64(ts.WarmScanned-s.baseT.WarmScanned), float64(ts.WarmPruned-s.baseT.WarmPruned)
		m.set("tier.get_hit_p50_us", quantile(getHit, 0.5), "us", len(getHit))
		m.set("tier.get_hit_p95_us", quantile(getHit, 0.95), "us", len(getHit))
		m.set("tier.warm_hit_frac", ratio(warm, hot+warm), "ratio", int(hot+warm))
		m.set("tier.warm_scanned_per_lookup", ratio(scanned, float64(ts.WarmLookups-s.baseT.WarmLookups)), "count", int(ts.WarmLookups-s.baseT.WarmLookups))
		m.set("tier.warm_pruned_frac", ratio(pruned, pruned+scanned), "ratio", int(pruned+scanned))
		m.set("tier.promotions_per_hit", ratio(float64(ts.Promotions-s.baseT.Promotions), hot+warm), "ratio", int(hot+warm))
		m.set("tier.demotions_per_put", ratio(float64(ts.Demotions-s.baseT.Demotions), puts), "ratio", int(puts))
	}
	m.set(mod+"put_us", quantile(put, 0.5), "us", len(put))
	if s.w.module != "tier" {
		m.set(mod+"distcomps_per_get", ratio(distComps, gets), "count", int(gets))
	}
	if !t.http {
		m.set("core.retriever_self_us", quantile(rootSelf, 0.5), "us", len(rootSelf))
	} else {
		t.mu.Lock()
		reqBytes, respBytes := t.reqBytes, t.respBytes
		t.mu.Unlock()
		m.set("server.handler_self_us", quantile(handlerSelf, 0.5), "us", len(handlerSelf))
		m.set("server.wire_self_us", quantile(wireSelf, 0.5), "us", len(wireSelf))
		m.set("server.request_bytes", ratio(float64(reqBytes), float64(len(reqs))), "B", len(reqs))
		m.set("server.response_bytes", ratio(float64(respBytes), float64(len(reqs))), "B", len(reqs))
		m.set("server.hit_busy_frac", ratio(float64(sumServerHit), float64(sumRootHit)), "ratio", len(getHit))
	}

	calls := float64(len(search))
	m.set("vectordb.search_us", quantile(search, 0.5), "us", len(search))
	m.set("vectordb.search_ns_per_vector", ratio(float64(sumSearch), calls*float64(s.index.Len())), "ns", len(search))
	m.set("vectordb.calls_per_request", ratio(calls, float64(len(reqs))), "ratio", len(reqs))
	m.set("vectordb.busy_frac", ratio(float64(sumSearch), float64(sumRoot)), "ratio", len(reqs))

	n := len(res.records)
	m.set("trace.overhead_frac", 1-ratio(float64(n)/res.wall.Seconds(), untracedQPS), "ratio", n)
	l2, l2n := s.in.probeL2()
	m.set("vec.l2_768_ns", l2, "ns", l2n)
	perEntry, entries := s.in.probeHeapPerEntry()
	m.set("core.heap_bytes_per_entry", perEntry, "B", entries)
	return m
}

var sink float32

// probeL2 times vec.L2Squared at the benchmark's dimension over
// l2Vectors distinct corpus vectors — more than the L1 and L2 caches
// hold — and returns the median nanoseconds per call over the sweeps.
func (in *inputs) probeL2() (ns float64, calls int) {
	const sweeps = 15
	q := in.centres[0]
	vs := in.corpus[:in.p.l2Vectors]
	per := make([]float64, 0, sweeps)
	for r := 0; r < sweeps; r++ {
		var acc float32
		start := time.Now()
		for _, v := range vs {
			acc += vec.L2Squared(q, v)
		}
		per = append(per, float64(time.Since(start))/float64(len(vs)))
		sink += acc
	}
	return quantile(per, 0.5), sweeps * len(vs)
}

// probeHeapPerEntry fills an isolated FLAT cache with heapProbeN
// entries and returns the live heap each one costs.
func (in *inputs) probeHeapPerEntry() (bytes float64, entries int) {
	p := in.p
	c, err := core.NewFlat(p.dim, core.Options{Capacity: p.heapProbeN, Tolerance: p.tau(), Policy: core.LRU})
	if err != nil {
		return 0, 0
	}
	docs := make([]int, p.k)
	before := liveHeap()
	for i := 0; i < p.heapProbeN; i++ {
		c.Put(in.corpus[i], docs)
	}
	after := liveHeap()
	runtime.KeepAlive(c)
	return (float64(after) - float64(before)) / float64(p.heapProbeN), p.heapProbeN
}
