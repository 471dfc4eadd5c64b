package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"proximity/internal/core"
	"proximity/internal/server"
	"proximity/internal/shard"
	"proximity/internal/tier"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// clients is the closed loop's width: a RAG pipeline worker waits for
// its K documents before it asks again, and the box has two cores, so
// two workers are all the load one process can offer without the
// generator competing with the system it measures.
const clients = 2

// workload is one set of inputs plus the cache and transport they are
// served through. module is the package that owns the cache under test;
// it prefixes that cache's span and metric names.
type workload struct {
	name     string
	stream   stream
	module   string
	http     bool
	newCache func(p params, seed uint64, dir string) (core.Cache, error)
}

func newFlat(p params, _ uint64, _ string) (core.Cache, error) {
	return core.NewFlat(p.dim, core.Options{Capacity: p.flatCap, Tolerance: p.tau(), Policy: core.LRU})
}

// workloads, in BENCHMARK.json's order; it and README.md say why each
// was chosen.
var workloads = []workload{
	{name: "zipf_flat", stream: streamZipf, module: "core", newCache: newFlat},
	{
		name: "zipf_lsh_http", stream: streamZipf, module: "shard", http: true,
		newCache: func(p params, seed uint64, _ string) (core.Cache, error) {
			return shard.NewLSH(p.dim, p.lshShards, core.LSHOptions{
				Bits: p.lshBits, BucketCapacity: p.lshBucket, Tolerance: p.tau(), Policy: core.LRU, Seed: seed,
			})
		},
	},
	{name: "cold_flat", stream: streamCold, module: "core", newCache: newFlat},
	{
		name: "zipf_tiered", stream: streamZipf, module: "tier",
		newCache: func(p params, seed uint64, dir string) (core.Cache, error) {
			return tier.New(p.dim, tier.Options{
				HotCapacity: p.hotCap, WarmCapacity: p.warmCap, Tolerance: p.tau(),
				Policy: core.LRU, Dir: dir, Seed: seed,
			})
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// system is one workload's serving path, built and warmed, ready to be
// driven by run.
type system struct {
	w      workload
	in     *inputs
	index  *vectordb.FlatIndex
	cache  core.Cache // the concrete cache, never a decorator: Stats() come from here
	tr     *tracer    // nil on an untraced run
	call   func(client int, q vec.Vector) (docs []int, hit bool, err error)
	stop   func() error
	next   int // first stream index after the warm-up prefix
	base   core.Stats
	baseT  core.TierStats
	heap0  uint64 // live heap once the inputs exist and before the system does
	setupS float64
}

// warmDB answers the warm-up replay's misses from the ground truth, so
// filling the cache costs microseconds per miss, not a corpus scan; the
// cache ends in the state the real index would have left it in, because
// every miss of the measured run checks that the two agree.
type warmDB struct {
	in      *inputs
	centre  int
	scratch []vec.Scored
}

func (d *warmDB) Search(q vec.Vector, _ int) ([]vec.Scored, error) {
	d.scratch = d.in.exactTopK(q, d.centre, d.scratch)
	return d.scratch, nil
}
func (d *warmDB) Dim() int { return d.in.p.dim }
func (d *warmDB) Len() int { return len(d.in.corpus) }

// setup generates the inputs, builds index, cache, retriever and (for
// an HTTP workload) server, and replays the warm-up prefix. tr non-nil
// puts the tracing decorators around cache, index and handler. dir
// holds the tiered workload's warm file.
func setup(w workload, seed uint64, p params, dir string, tr *tracer) (*system, error) {
	start := time.Now()
	s := &system{w: w, tr: tr, next: p.warmup}
	s.in = genInputs(seed, p)
	s.heap0 = liveHeap()

	var err error
	if s.index, err = vectordb.NewFlatFromVectors(s.in.corpus, vec.L2Distance); err != nil {
		return nil, err
	}
	if s.cache, err = w.newCache(p, seed, dir); err != nil {
		return nil, err
	}
	s.stop = func() error { return closeCache(s.cache) }

	warm := &warmDB{in: s.in}
	wret, err := core.NewCachedRetriever(s.cache, warm, core.RetrieverOptions{K: p.k})
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	buf := make(vec.Vector, p.dim)
	for i := 0; i < p.warmup; i++ {
		warm.centre = s.in.query(w.stream, i, buf)
		if _, err := wret.Retrieve(buf); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up query %d: %w", i, err), s.stop())
		}
	}
	s.base = s.cache.Stats()
	if ts, ok := s.cache.(core.TierStatser); ok {
		s.baseT = ts.TierStats()
	}

	var cache core.Cache = s.cache
	var db vectordb.DB = s.index
	if tr != nil {
		cache = &tracedCache{Cache: cache, t: tr}
		db = &tracedDB{DB: db, t: tr}
	}
	ret, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: p.k})
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	if !w.http {
		s.call = func(_ int, q vec.Vector) ([]int, bool, error) {
			res, err := ret.Retrieve(q)
			return res.Docs, res.Hit, err
		}
	} else if err := s.serve(ret); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

// serve puts internal/server in front of ret on a loopback port, the
// way Server.Listen does, with one keep-alive connection per client.
// (Server.Listen itself cannot take the tracing handler, and its stop
// does not wait for the serving goroutine.)
func (s *system) serve(ret *core.CachedRetriever) error {
	srv, err := server.New(server.Config{Retriever: ret})
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if s.tr != nil {
		handler = s.tr.wrapHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always http.ErrServerClosed once stop runs
	}()
	var cl [clients]*server.Client
	for i := range cl {
		cl[i] = server.NewClient("http://" + ln.Addr().String())
	}
	s.call = func(client int, q vec.Vector) ([]int, bool, error) {
		resp, err := cl[client].Retrieve(q)
		return resp.Docs, resp.Hit, err
	}
	closeCacheOnly := s.stop
	s.stop = func() error {
		err := hs.Close()
		<-done
		if t, ok := http.DefaultTransport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
		return errors.Join(err, closeCacheOnly())
	}
	return nil
}

func closeCache(c core.Cache) error {
	if cl, ok := c.(interface{ Close() error }); ok {
		return cl.Close()
	}
	return nil
}

// liveHeap is the bytes of reachable heap objects: HeapAlloc right
// after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
