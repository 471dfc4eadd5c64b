package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"proximity/internal/core"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// Tracing is done from outside: bench wraps the interfaces it hands to
// the system — core.Cache, vectordb.DB, http.Handler — and times its
// own calls into the retriever or the HTTP client. No span is recorded
// inside the program. The tree of one request is
//
//	server.client ⊃ server.handler ⊃ {<cache>.get, vectordb.search, <cache>.put}
//
// over HTTP and core.retrieve ⊃ {<cache>.get, vectordb.search,
// <cache>.put} in-process, where <cache> is the workload's module.

type spanKind uint8

const (
	kindClient   spanKind = iota // root over HTTP: server.Client.Retrieve
	kindRetrieve                 // root in-process: CachedRetriever.Retrieve
	kindHandler                  // Server.Handler().ServeHTTP
	kindGet
	kindSearch
	kindPut
	numKinds
)

// span is one timed call. Spans of one request share req, the stream
// index of its query; a span's parent is the span of the same request
// whose kind is parentOf its own.
type span struct {
	req        int32
	kind       spanKind
	hit        bool  // root: the request's outcome; get: the lookup's
	start, end int64 // ns since the tracer's epoch
}

type tracer struct {
	module string // names the cache's spans: core, shard or tier
	http   bool
	epoch  time.Time

	// inflight maps the embeddings now in the system back to their
	// request: every stream query is unique, so a decorator that sees
	// only the vector — even one decoded from JSON on the far side of
	// the HTTP hop — recovers the request id from its first two floats.
	inflight [clients]struct {
		key atomic.Uint64
		req atomic.Int32
	}

	mu        sync.Mutex
	spans     []span
	reqBytes  int64
	respBytes int64
}

func newTracer(w workload) *tracer {
	return &tracer{module: w.module, http: w.http, epoch: time.Now()}
}

func embeddingKey(q vec.Vector) uint64 {
	return uint64(math.Float32bits(q[0]))<<32 | uint64(math.Float32bits(q[1]))
}

// begin announces that client is about to send stream query req.
func (t *tracer) begin(client, req int, q vec.Vector) {
	t.inflight[client].req.Store(int32(req))
	t.inflight[client].key.Store(embeddingKey(q))
}

// reqOf recovers the request an embedding belongs to, −1 if none.
func (t *tracer) reqOf(q vec.Vector) int32 {
	key := embeddingKey(q)
	for c := range t.inflight {
		if t.inflight[c].key.Load() == key {
			return t.inflight[c].req.Load()
		}
	}
	return -1
}

func (t *tracer) add(kind spanKind, req int32, start, end time.Time, hit bool) {
	s := span{req: req, kind: kind, hit: hit, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far; analysis runs on it after
// the clients have stopped.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[:len(t.spans):len(t.spans)]
}

// rootKind is the span bench times around its own call.
func (t *tracer) rootKind() spanKind {
	if t.http {
		return kindClient
	}
	return kindRetrieve
}

func (t *tracer) root(req int, start, end time.Time, hit bool) {
	t.add(t.rootKind(), int32(req), start, end, hit)
}

func (t *tracer) parentOf(k spanKind) (spanKind, bool) {
	switch {
	case k == kindClient || k == kindRetrieve:
		return 0, false
	case k == kindHandler:
		return kindClient, true
	case t.http:
		return kindHandler, true
	default:
		return kindRetrieve, true
	}
}

func (t *tracer) name(k spanKind) string {
	switch k {
	case kindClient:
		return "server.client"
	case kindRetrieve:
		return "core.retrieve"
	case kindHandler:
		return "server.handler"
	case kindGet:
		return t.module + ".get"
	case kindSearch:
		return "vectordb.search"
	default:
		return t.module + ".put"
	}
}

// tracedCache times Get and Put of the cache under test. The remaining
// core.Cache methods pass through the embedded interface.
type tracedCache struct {
	core.Cache
	t *tracer
}

func (c *tracedCache) lookup(q vec.Vector, req int32) ([]int, bool) {
	start := time.Now()
	docs, ok := c.Cache.Get(q)
	c.t.add(kindGet, req, start, time.Now(), ok)
	return docs, ok
}

func (c *tracedCache) Get(q vec.Vector) ([]int, bool) { return c.lookup(q, c.t.reqOf(q)) }

// GetContext is what the retriever calls when the cache offers it; the
// context is how the handler span, which never sees the embedding,
// learns which request it served.
func (c *tracedCache) GetContext(ctx context.Context, q vec.Vector) ([]int, bool) {
	req := c.t.reqOf(q)
	if served, ok := ctx.Value(servedKey{}).(*int32); ok {
		*served = req
	}
	return c.lookup(q, req)
}

func (c *tracedCache) Put(q vec.Vector, docs []int) {
	start := time.Now()
	c.Cache.Put(q, docs)
	c.t.add(kindPut, c.t.reqOf(q), start, time.Now(), false)
}

// tracedDB times the index's Search.
type tracedDB struct {
	vectordb.DB
	t *tracer
}

func (d *tracedDB) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	start := time.Now()
	out, err := d.DB.Search(q, k)
	d.t.add(kindSearch, d.t.reqOf(q), start, time.Now(), false)
	return out, err
}

type servedKey struct{}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// wrapHandler times the server's handler and counts the body bytes of
// each exchange.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served := int32(-1)
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), servedKey{}, &served)))
		end := time.Now()
		t.add(kindHandler, served, start, end, false)
		t.mu.Lock()
		t.reqBytes += r.ContentLength
		t.respBytes += cw.n
		t.mu.Unlock()
	})
}

// request is the span tree of one request, indexed by kind.
type request struct {
	has [numKinds]bool
	s   [numKinds]span
}

func (r *request) dur(k spanKind) time.Duration {
	return time.Duration(r.s[k].end - r.s[k].start)
}

// self is a span's duration minus what its child spans cover.
func (t *tracer) self(r *request, k spanKind) time.Duration {
	d := r.dur(k)
	for c := spanKind(0); c < numKinds; c++ {
		if p, ok := t.parentOf(c); ok && p == k && r.has[c] {
			d -= r.dur(c)
		}
	}
	return d
}

// requests groups the spans by request and checks that every tree is
// well formed: one root, no span without a request or seen twice, each
// child inside its parent, no negative self time — so that the self
// times of a request's spans add up to its root span exactly.
func (t *tracer) requests() ([]request, error) {
	byReq := map[int32]*request{}
	var order []int32
	for _, s := range t.snapshot() {
		if s.req < 0 {
			return nil, fmt.Errorf("trace: %s span belongs to no request", t.name(s.kind))
		}
		r := byReq[s.req]
		if r == nil {
			r = &request{}
			byReq[s.req] = r
			order = append(order, s.req)
		}
		if r.has[s.kind] {
			return nil, fmt.Errorf("trace: request %d has two %s spans", s.req, t.name(s.kind))
		}
		r.has[s.kind], r.s[s.kind] = true, s
	}
	out := make([]request, 0, len(order))
	for _, req := range order {
		r := byReq[req]
		for k := spanKind(0); k < numKinds; k++ {
			if !r.has[k] {
				continue
			}
			if p, ok := t.parentOf(k); ok {
				if !r.has[p] {
					return nil, fmt.Errorf("trace: request %d: %s has no %s parent", req, t.name(k), t.name(p))
				}
				if r.s[k].start < r.s[p].start || r.s[k].end > r.s[p].end {
					return nil, fmt.Errorf("trace: request %d: %s lies outside %s", req, t.name(k), t.name(p))
				}
			}
			if t.self(r, k) < 0 {
				return nil, fmt.Errorf("trace: request %d: %s has negative self time", req, t.name(k))
			}
		}
		out = append(out, *r)
	}
	return out, nil
}

// write stores the spans as JSON: name, start, end, request id and the
// name of the parent span within that request.
func (t *tracer) write(dir, workload string) error {
	spans := t.snapshot()
	return core.WriteFileAtomic(filepath.Join(dir, "trace-"+workload+".json"), func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "{\"workload\":%q,\"spans\":[", workload); err != nil {
			return err
		}
		for i, s := range spans {
			parent := ""
			if p, ok := t.parentOf(s.kind); ok {
				parent = t.name(p)
			}
			sep := ","
			if i == 0 {
				sep = ""
			}
			if _, err := fmt.Fprintf(w, "%s\n{\"req\":%d,\"name\":%q,\"parent\":%q,\"start_ns\":%d,\"end_ns\":%d}",
				sep, s.req, t.name(s.kind), parent, s.start, s.end); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n]}\n")
		return err
	})
}
