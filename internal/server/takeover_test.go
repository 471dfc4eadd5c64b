package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proximity/internal/core"
	"proximity/internal/telemetry"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// plainWriter hides every interface of the ResponseWriter it wraps,
// http.Hijacker included, so a server behind it never takes a
// connection over.
type plainWriter struct{ http.ResponseWriter }

// takeoverTwin builds a server over a switchable-failure database of 12
// random documents (dim 16, K 2, a FLAT cache, an always-sampling hub),
// with docs resolving passage text when it is not nil.
func takeoverTwin(t *testing.T, docs Documents) (*Server, *flakyDB, []vec.Vector) {
	t.Helper()
	const dim = 16
	db, err := vectordb.NewFlatIndex(dim, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(7)
	vecs := make([]vec.Vector, 12)
	for i := range vecs {
		vecs[i] = vec.Scale(vec.RandomGaussian(rng, dim), 4)
		if err := db.Add(vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := core.NewFlat(dim, core.Options{Capacity: 8, Tolerance: 1, Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyDB{DB: db}
	tel := telemetry.New(telemetry.Options{SampleEvery: 1, RingSize: 4})
	retr, err := core.NewCachedRetriever(cache, flaky, core.RetrieverOptions{K: 2, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Retriever: retr, Telemetry: tel, Docs: docs})
	if err != nil {
		t.Fatal(err)
	}
	return srv, flaky, vecs
}

// rawRequest is the request the Client writes for rq, with extra header
// lines (each ending in CRLF) before the blank line.
func rawRequest(rq request, extra string) []byte {
	head := appendHead(nil, "127.0.0.1:1", &rq)
	head = append(head[:len(head)-2], extra+"\r\n"...)
	return append(head, rq.body...)
}

func f32Request(q []float32, extra string) []byte {
	return rawRequest(request{method: http.MethodPost, path: "/v1/retrieve", contentType: ContentTypeF32, body: encodeF32(q)}, extra)
}

// rawConn is one client connection that records every reply byte.
type rawConn struct {
	net.Conn
	rec bytes.Buffer
	br  *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	c := &rawConn{Conn: nc}
	c.br = bufio.NewReader(io.TeeReader(nc, &c.rec))
	return c
}

// exchange writes raw and returns the bytes of the next n replies, with
// the connection's end when closed is set.
func (c *rawConn) exchange(t *testing.T, raw []byte, n int, closed bool) []byte {
	t.Helper()
	c.rec.Reset()
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}
	for range n {
		resp, err := http.ReadResponse(c.br, nil)
		if err != nil {
			t.Fatalf("reply: %v (read so far %q)", err, c.rec.Bytes())
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
	}
	if closed {
		if _, err := c.br.ReadByte(); err != io.EOF {
			t.Fatalf("read after the last reply: %v, want EOF", err)
		}
	}
	return bytes.Clone(c.rec.Bytes())
}

// varying are the reply bytes that differ between two runs of the same
// exchange: the Date value, the timings and the span header's numbers,
// and the Content-Length and chunk size their digits move.
var varying = []struct {
	re *regexp.Regexp
	to string
}{
	{regexp.MustCompile(`Date: [^\r]*`), "Date: *"},
	{regexp.MustCompile(`Content-Length: \d+`), "Content-Length: *"},
	{regexp.MustCompile(`("cacheLookupMicros"|"dbServiceMillis"):[-0-9.e+]+`), "$1:*"},
	{regexp.MustCompile(`\r\n\r\n[0-9a-f]+\r\n`), "\r\n\r\n*\r\n"},
}

var spanLine, number = regexp.MustCompile(`(?m)^X-Proximity-Trace-Spans: .*$`), regexp.MustCompile(`\d+`)

func masked(b []byte) string {
	b = spanLine.ReplaceAllFunc(b, func(line []byte) []byte { return number.ReplaceAll(line, []byte("*")) })
	for _, v := range varying {
		b = v.re.ReplaceAll(b, []byte(v.to))
	}
	return string(b)
}

// TestTakeoverMatchesNetHTTP: a server that takes its connections over
// answers every exchange with the bytes its twin behind a non-Hijacker
// wrapper (so on net/http throughout) sends, timings and Date masked:
// on the loop (hit, miss, wrong length, non-finite, backend error, a
// traced request, a reply long enough to be chunked) and on the
// hand-off after a takeover (/v1/stats, a JSON retrieve, Expect:
// 100-continue, Connection: close, a pipelined pair, a head longer than
// the loop's buffer, requests pipelined behind the one taken over).
func TestTakeoverMatchesNetHTTP(t *testing.T) {
	type step struct {
		name   string
		raw    func(q []vec.Vector) []byte
		n      int  // replies
		closed bool // the server closes the connection after them
		broken bool // the database fails
		opens  bool // raw is a fresh connection's first write
	}
	nan := func(q []float32) []float32 {
		q = vec.Clone(q)
		q[3] = float32(math.NaN())
		return q
	}
	stats := rawRequest(request{method: http.MethodGet, path: "/v1/stats"}, "")
	loop := []step{
		{name: "hit", raw: func(q []vec.Vector) []byte { return f32Request(q[0], "") }, n: 1},
		{name: "miss", raw: func(q []vec.Vector) []byte { return f32Request(q[1], "") }, n: 1},
		{name: "wrong length", raw: func(q []vec.Vector) []byte { return f32Request(q[2][:15], "") }, n: 1},
		{name: "non-finite", raw: func(q []vec.Vector) []byte { return f32Request(nan(q[2]), "") }, n: 1},
		{name: "backend error", raw: func(q []vec.Vector) []byte { return f32Request(q[3], "") }, n: 1, broken: true},
		{name: "traced", raw: func(q []vec.Vector) []byte {
			return f32Request(q[4], telemetry.TraceHeader+": "+telemetry.FormatTraceID(0xab)+"\r\n")
		}, n: 1},
		{name: "traced hit", raw: func(q []vec.Vector) []byte {
			return f32Request(q[4], telemetry.TraceHeader+": "+telemetry.FormatTraceID(0xcd)+"\r\n")
		}, n: 1},
		{name: "hit after", raw: func(q []vec.Vector) []byte { return f32Request(q[1], "") }, n: 1},
		{name: "CRLF after the body", raw: func(q []vec.Vector) []byte { return append([]byte("\r\n"), f32Request(q[0], "")...) }, n: 1},
	}
	handoffs := []step{
		{name: "stats", raw: func([]vec.Vector) []byte { return stats }, n: 1},
		{name: "json retrieve", raw: func(q []vec.Vector) []byte {
			body := fmt.Appendf(nil, `{"embedding":%s}`, strings.Join(strings.Fields(fmt.Sprint(q[5])), ","))
			return rawRequest(request{method: http.MethodPost, path: "/v1/retrieve", contentType: "application/json", body: body}, "")
		}, n: 1},
		{name: "expect continue", raw: func(q []vec.Vector) []byte { return f32Request(q[6], "Expect: 100-continue\r\n") }, n: 2},
		{name: "connection close", raw: func(q []vec.Vector) []byte { return f32Request(q[6], "Connection: close\r\n") }, n: 1, closed: true},
		{name: "pipelined pair", raw: func(q []vec.Vector) []byte { return append(f32Request(q[7], ""), stats...) }, n: 2},
		{name: "head over the buffer", raw: func(q []vec.Vector) []byte {
			return f32Request(q[8], "X-Pad: "+strings.Repeat("p", 4096)+"\r\n")
		}, n: 1},
		{name: "stats pipelined first", raw: func(q []vec.Vector) []byte { return append(bytes.Clone(stats), f32Request(q[9], "")...) }, n: 2},
		{name: "pipelined behind the first", raw: func(q []vec.Vector) []byte {
			return append(append(f32Request(q[0], ""), f32Request(q[10], "")...), stats...)
		}, n: 3, opens: true},
	}

	run := func(t *testing.T, docs Documents, steps []step, fresh bool) {
		direct, flakyA, q := takeoverTwin(t, docs)
		twin, flakyB, _ := takeoverTwin(t, docs)
		var hijacked atomic.Int64
		tsA := httptest.NewUnstartedServer(direct.Handler())
		tsA.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateHijacked {
				hijacked.Add(1)
			}
		}
		tsA.Start()
		t.Cleanup(tsA.Close)
		tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			twin.Handler().ServeHTTP(plainWriter{w}, r)
		}))
		t.Cleanup(tsB.Close)

		var a, b *rawConn
		conns := 0
		for i, st := range steps {
			if fresh || i == 0 {
				a, b = dialRaw(t, tsA.Listener.Addr().String()), dialRaw(t, tsB.Listener.Addr().String())
				conns++
				if first := f32Request(q[0], ""); !st.opens { // the request the direct server takes over
					if ga, gb := a.exchange(t, first, 1, false), b.exchange(t, first, 1, false); masked(ga) != masked(gb) {
						t.Fatalf("%s, first request:\ntaken over %q\nnet/http   %q", st.name, ga, gb)
					}
				}
			}
			flakyA.broken.Store(st.broken)
			flakyB.broken.Store(st.broken)
			raw := st.raw(q)
			ga, gb := a.exchange(t, raw, st.n, st.closed), b.exchange(t, raw, st.n, st.closed)
			if masked(ga) != masked(gb) {
				t.Errorf("%s:\ntaken over %q\nnet/http   %q", st.name, ga, gb)
			}
		}
		if n := hijacked.Load(); n != int64(conns) {
			t.Errorf("%d connections taken over, want %d", n, conns)
		}
	}
	t.Run("loop", func(t *testing.T) { run(t, nil, loop, false) })
	t.Run("hand-off", func(t *testing.T) { run(t, nil, handoffs, true) })
	long := make(docTexts, 12)
	for i := range long {
		long[i] = strings.Repeat(fmt.Sprint(i), 1200)
	}
	t.Run("chunked", func(t *testing.T) { run(t, long, loop[:2], false) })
}

// TestTakeoverKeepsHeaderTimeout: a taken-over connection whose next head
// stalls is closed when the mounting server's ReadHeaderTimeout runs out.
func TestTakeoverKeepsHeaderTimeout(t *testing.T) {
	srv, _, q := takeoverTwin(t, nil)
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ReadHeaderTimeout = 50 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)
	c := dialRaw(t, ts.Listener.Addr().String())
	c.exchange(t, f32Request(q[0], ""), 1, false)
	start := time.Now()
	if _, err := c.Write([]byte("POST /v1/retrieve HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.br.ReadByte(); err != io.EOF {
		t.Fatalf("stalled head: %v, want EOF", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("closed after %v, want about 50 ms", elapsed)
	}
}

// TestListenStopClosesTakenOverConnections: Listen's stop closes a
// connection the loop owns and one it handed back, as it closes the
// ones net/http serves.
func TestListenStopClosesTakenOverConnections(t *testing.T) {
	srv, _, q := takeoverTwin(t, nil)
	addr, stop, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	owned, handed := dialRaw(t, addr), dialRaw(t, addr)
	owned.exchange(t, f32Request(q[0], ""), 1, false)
	handed.exchange(t, f32Request(q[0], ""), 1, false)
	handed.exchange(t, rawRequest(request{method: http.MethodGet, path: "/v1/stats"}, ""), 1, false)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*rawConn{"taken over": owned, "handed back": handed} {
		if _, err := c.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s connection after stop: %v, want it closed", name, err)
		}
	}
	if _, err := NewClient("http://" + addr).Retrieve(q[0]); err == nil {
		t.Error("a call after stop succeeded")
	}
}

// TestHeadParsersAllocFree: both strict head parsers read a head without
// an allocation.
func TestHeadParsersAllocFree(t *testing.T) {
	reqHead := appendHead(nil, "127.0.0.1:8080", &request{method: http.MethodPost, path: "/v1/retrieve",
		contentType: ContentTypeF32, body: make([]byte, 3072), traceID: 0xbeef})
	repHead := appendReply(nil, http.StatusOK, `[{"stage":"cache_lookup"}]`, nil, time.Now())
	if _, _, ok := parseRequestHead(reqHead); !ok {
		t.Fatalf("refused %q", reqHead)
	}
	if _, _, _, ok := parseReplyHead(repHead); !ok {
		t.Fatalf("refused %q", repHead)
	}
	if n := testing.AllocsPerRun(200, func() { parseRequestHead(reqHead) }); n != 0 {
		t.Errorf("parseRequestHead: %.1f allocs", n)
	}
	if n := testing.AllocsPerRun(200, func() { parseReplyHead(repHead) }); n != 0 {
		t.Errorf("parseReplyHead: %.1f allocs", n)
	}
}

// FuzzRequestHead holds the loop's head reader to http.ReadRequest: a
// head it accepts is read by http.ReadRequest as a ContentTypeF32
// /v1/retrieve keep-alive request with the same Content-Length and trace
// header and no other header, and the bytes after it are that request's
// body; a head it refuses leaves every byte for the hand-off.
func FuzzRequestHead(f *testing.F) {
	f.Add(f32Request([]float32{1, 2}, ""))
	f.Add(f32Request([]float32{1, 2}, telemetry.TraceHeader+": "+telemetry.FormatTraceID(0xabc)+"\r\n"))
	f.Add(f32Request([]float32{1}, "Expect: 100-continue\r\n"))
	f.Add(rawRequest(request{method: http.MethodGet, path: "/v1/stats"}, ""))
	f.Add([]byte("POST /v1/retrieve HTTP/1.1\nHost: h\nUser-Agent: Go-http-client/1.1\nContent-Length: 4\nContent-Type: " +
		ContentTypeF32 + "\n\nabcd"))
	f.Add([]byte("POST /v1/retrieve HTTP/1.1\r\nHost: h\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 04\r\n" +
		"Content-Type: " + ContentTypeF32 + "\r\n\r\nabcd"))
	f.Add(append(f32Request([]float32{1}, ""), f32Request([]float32{2}, "")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), 256)
		head, err := peekHead(br)
		length, trace, ok := parseRequestHead(head)
		if !ok {
			if rest, _ := io.ReadAll(br); !bytes.Equal(rest, data) {
				t.Fatalf("refused (err %v) but consumed %d bytes", err, len(data)-len(rest))
			}
			return
		}
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("accepted %q, http.ReadRequest refuses it: %v", head, err)
		}
		want := 3 // User-Agent, Content-Length, Content-Type; Host has its own field
		if trace != nil {
			want++
		}
		if req.Method != http.MethodPost || req.URL.Path != "/v1/retrieve" || req.URL.RawQuery != "" ||
			req.Proto != "HTTP/1.1" || req.Close || req.Host == "" || req.TransferEncoding != nil ||
			req.ContentLength != int64(length) || req.Header.Get("Content-Type") != ContentTypeF32 ||
			req.Header.Get(telemetry.TraceHeader) != string(trace) || len(req.Header) != want {
			t.Fatalf("accepted %q as length %d trace %q; http.ReadRequest reads %s %s %s host %q length %d header %v",
				head, length, trace, req.Method, req.URL, req.Proto, req.Host, req.ContentLength, req.Header)
		}
		body, _ := io.ReadAll(req.Body)
		if rest := data[len(head):]; !bytes.Equal(body, rest[:min(len(rest), length)]) {
			t.Fatalf("body %q, the bytes after the head %q", body, rest)
		}
	})
}

// FuzzReplyHead holds the client's reply head reader to
// http.ReadResponse: a head it accepts is read by http.ReadResponse with
// the same status, Content-Length and span header, and no Connection:
// close, and the bytes after it are the body; a head it refuses leaves
// every byte for http.ReadResponse.
func FuzzReplyHead(f *testing.F) {
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	f.Add(appendReply(nil, http.StatusOK, "", []byte(`{"docs":[1],"hit":true,"cacheLookupMicros":1,"dbServiceMillis":0}`+"\n"), now))
	f.Add(appendReply(nil, http.StatusInternalServerError, `[{"stage":"db_search","dur":12}]`, []byte(`{"error":"x"}`+"\n"), now))
	f.Add(appendReply(nil, http.StatusBadRequest, "", bytes.Repeat([]byte("a"), chunkAbove+1), now))
	f.Add([]byte("HTTP/1.1 204 No Content\r\nContent-Type: application/json\r\nDate: Fri, 02 Jan 2026 03:04:05 GMT\r\nContent-Length: 0\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Fri, 02 Jan 2026 03:04:05 GMT\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"))
	f.Add([]byte("HTTP/1.1 200 OK\nContent-Type: application/json\nDate: Fri, 02 Jan 2026 03:04:05 GMT\nContent-Length: 2\n\n{}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), 256)
		head, err := peekHead(br)
		status, length, spans, ok := parseReplyHead(head)
		if !ok {
			if rest, _ := io.ReadAll(br); !bytes.Equal(rest, data) {
				t.Fatalf("refused (err %v) but consumed %d bytes", err, len(data)-len(rest))
			}
			return
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			t.Fatalf("accepted %q, http.ReadResponse refuses it: %v", head, err)
		}
		if resp.StatusCode != status || resp.ContentLength != int64(length) || resp.Close ||
			resp.TransferEncoding != nil || resp.Header.Get(telemetry.TraceSpanHeader) != string(spans) {
			t.Fatalf("accepted %q as status %d length %d spans %q; http.ReadResponse reads status %d length %d close %v header %v",
				head, status, length, spans, resp.StatusCode, resp.ContentLength, resp.Close, resp.Header)
		}
		body, _ := io.ReadAll(resp.Body)
		if rest := data[len(head):]; !bytes.Equal(body, rest[:min(len(rest), length)]) {
			t.Fatalf("body %q, the bytes after the head %q", body, rest)
		}
	})
}
