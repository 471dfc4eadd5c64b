package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"proximity/internal/telemetry"
)

// maxIdleConns is how many keep-alive connections a Client keeps open
// between calls: net/http's per-host default.
const maxIdleConns = http.DefaultMaxIdleConnsPerHost

// Client is a typed HTTP/1.1 client for the retrieval middleware. Each
// call runs its whole round trip on the calling goroutine, over a
// keep-alive connection the Client owns; there are no transport
// goroutines to hand the request to and the reply back from. The
// contract:
//
//   - The base URL is plain http://host:port: no TLS, no path prefix and
//     no proxy from the environment. With any other base, every call
//     returns an error.
//   - At most maxIdleConns (2) connections stay open between calls. A
//     call that finds none idle dials one; concurrent calls each hold a
//     connection of their own.
//   - One deadline, the Client's timeout from the start of the call,
//     covers the dial, the request and the reply up to its last body
//     byte. A connection on which any step fails, or whose reply says
//     Connection: close, is closed and never pooled again.
//   - A call on a reused connection that fails before any reply byte
//     arrives — the server closed the idle connection under it — is sent
//     once more on a fresh dial, unless the failure was the deadline.
//     RebalanceNow is the exception: repeating it is not a no-op, so it
//     always dials a connection of its own and is never sent twice.
//
// A Client is safe for concurrent use. Close closes the idle
// connections.
type Client struct {
	host    string        // host:port of the base URL
	baseErr error         // non-nil when the base URL is not http://host:port
	timeout time.Duration // per call; 0 is none

	mu     sync.Mutex
	idle   []*clientConn // most recently used last
	closed bool
}

// clientConn is one keep-alive connection and its buffers.
type clientConn struct {
	net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body bytes.Buffer     // the last reply's body
	lr   io.LimitedReader // bounds that body at drainMax
}

// StatusError is a non-2xx middleware reply. Callers that route around
// failures (the cluster client) use Code to distinguish input the whole
// cluster would reject (4xx: not retryable) from a faulty node (5xx:
// retry the next ring replica).
type StatusError struct {
	Code int    // HTTP status code
	Path string // request path
	Msg  string // server-reported error message, if any
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("client: %s: %s (status %d)", e.Path, e.Msg, e.Code)
	}
	return fmt.Sprintf("client: %s: status %d", e.Path, e.Code)
}

// NewClient targets a middleware at base (e.g. "http://127.0.0.1:8080").
func NewClient(base string) *Client {
	return NewClientWithTimeout(base, 30*time.Second)
}

// NewClientWithTimeout is NewClient with an explicit per-call deadline
// (0: none). Health probes and admin snapshots (the cluster router's
// /healthz and /v1/stats fetches) want to fail fast on a hung node
// rather than inherit the data path's generous timeout.
func NewClientWithTimeout(base string, timeout time.Duration) *Client {
	c := &Client{timeout: timeout}
	u, err := url.Parse(base)
	switch {
	case err != nil:
		c.baseErr = fmt.Errorf("client: base URL: %w", err)
	case u.Scheme != "http" || u.Hostname() == "" || u.Port() == "" || u.User != nil ||
		u.Path != "" || u.RawQuery != "" || u.Fragment != "":
		c.baseErr = fmt.Errorf("client: base URL %q is not http://host:port", base)
	default:
		c.host = u.Host
	}
	return c
}

// Close closes the Client's idle connections. A call still in flight
// closes its connection when it ends, and a call made after Close works
// over a connection of its own that it closes when done.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.closed = nil, true
	c.mu.Unlock()
	for _, cn := range idle {
		_ = cn.Close()
	}
	return nil
}

// Retrieve fetches documents for a pre-computed embedding, which travels
// as a ContentTypeF32 body.
func (c *Client) Retrieve(embedding []float32) (RetrieveResponse, error) {
	var out RetrieveResponse
	_, err := c.call(&request{method: http.MethodPost, path: "/v1/retrieve",
		contentType: ContentTypeF32, body: encodeF32(embedding)}, &out)
	return out, err
}

// RetrieveTraced is Retrieve under an existing trace: the request
// carries traceID in the X-Proximity-Trace header, and the node's spans
// (recorded under that ID) come back decoded from the response header —
// the cluster router grafts them into the parent trace. traceID 0
// degrades to a plain Retrieve.
func (c *Client) RetrieveTraced(embedding []float32, traceID uint64) (RetrieveResponse, []telemetry.Span, error) {
	var out RetrieveResponse
	hdr, err := c.call(&request{method: http.MethodPost, path: "/v1/retrieve",
		contentType: ContentTypeF32, body: encodeF32(embedding), traceID: traceID}, &out)
	// Span decode failures are dropped, not fatal: the retrieval result
	// matters more than its timeline.
	spans, _ := telemetry.UnmarshalSpans(hdr)
	return out, spans, err
}

// Traces fetches up to n recent sampled traces (n <= 0: all buffered).
func (c *Client) Traces(n int) ([]telemetry.TraceRecord, error) {
	query := ""
	if n > 0 {
		query = "n=" + strconv.Itoa(n)
	}
	var out TracesResponse
	err := c.get("/v1/traces", query, &out)
	return out.Traces, err
}

// Health fetches the build-info health check.
func (c *Client) Health() (HealthResponse, error) {
	var out HealthResponse
	err := c.get("/v1/healthz", "", &out)
	return out, err
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	var out string
	err := c.get("/metrics", "", &out)
	return out, err
}

// RetrieveBatch fetches documents for several embeddings in one call; the
// results are parallel to embeddings. A failure of any element fails the
// whole batch. The embeddings travel as one ContentTypeF32 body; a batch
// that format cannot frame (see sameLength) goes as JSON, so that the
// server can name the element it refuses.
func (c *Client) RetrieveBatch(embeddings [][]float32) (BatchRetrieveResponse, error) {
	var out BatchRetrieveResponse
	var err error
	if sameLength(embeddings) {
		_, err = c.call(&request{method: http.MethodPost, path: "/v1/retrieve/batch",
			contentType: ContentTypeF32, body: encodeF32(embeddings...)}, &out)
	} else {
		err = c.post("/v1/retrieve/batch", BatchRetrieveRequest{Embeddings: embeddings}, &out)
	}
	if err == nil && len(out.Results) != len(embeddings) {
		return out, fmt.Errorf("client: /v1/retrieve/batch: %d results for %d embeddings",
			len(out.Results), len(embeddings))
	}
	return out, err
}

// Query fetches documents for a text query (embedded server-side).
func (c *Client) Query(text string) (RetrieveResponse, error) {
	var out RetrieveResponse
	err := c.post("/v1/query", QueryRequest{Text: text}, &out)
	return out, err
}

// Stats reads cache statistics.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := c.get("/v1/stats", "", &out)
	return out, err
}

// Flush clears the cache; the server's counters are untouched.
func (c *Client) Flush() error {
	_, err := c.call(&request{method: http.MethodPost, path: "/v1/flush",
		contentType: "application/json", want: http.StatusNoContent}, nil)
	return err
}

// RebalanceNow triggers one manual rebalance action on the middleware
// (501 StatusError when the server has no controller configured). It is
// never sent twice: see Client.
func (c *Client) RebalanceNow() (RebalanceResponse, error) {
	var out RebalanceResponse
	_, err := c.call(&request{method: http.MethodPost, path: "/v1/rebalance",
		contentType: "application/json", body: []byte("{}"), once: true}, &out)
	return out, err
}

// Healthy reports whether the middleware answers its health check.
func (c *Client) Healthy() bool {
	return c.get("/healthz", "", nil) == nil
}

func (c *Client) get(path, query string, out any) error {
	_, err := c.call(&request{method: http.MethodGet, path: path, query: query}, out)
	return err
}

func (c *Client) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: marshal: %w", err)
	}
	_, err = c.call(&request{method: http.MethodPost, path: path,
		contentType: "application/json", body: body}, out)
	return err
}

// request is one call: its request line, headers and body, and the
// reply status that carries its result.
type request struct {
	method, path, query string
	contentType         string // "" sends no Content-Type
	body                []byte
	traceID             uint64 // non-zero rides telemetry.TraceHeader
	want                int    // 0 is 200 OK
	once                bool   // never sent twice: dial a connection of its own
}

// call runs rq's round trip and decodes a reply of the wanted status into
// out: a *string takes the body as text, nil nothing, anything else the
// JSON value. Any other status is a *StatusError, carrying the server's
// message if it sent one. The node's span header comes back raw, beside
// an error too (a failed attempt belongs on the timeline); only
// RetrieveTraced decodes it.
func (c *Client) call(rq *request, out any) (string, error) {
	if c.baseErr != nil {
		return "", c.baseErr
	}
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	var cn *clientConn
	if !rq.once {
		cn = c.take()
	}
	reused := cn != nil
	for {
		if cn == nil {
			var err error
			if cn, err = c.dial(deadline); err != nil {
				return "", fmt.Errorf("client: %s: %w", rq.path, err)
			}
		}
		resp, replied, err := cn.exchange(c.newRequest(rq), deadline)
		if err != nil {
			_ = cn.Close()
			if reused && !replied && !errors.Is(err, os.ErrDeadlineExceeded) {
				cn, reused = nil, false
				continue
			}
			return "", fmt.Errorf("client: %s: %w", rq.path, err)
		}
		spans := resp.Header.Get(telemetry.TraceSpanHeader)
		err = decodeReply(rq, resp.StatusCode, cn.body.Bytes(), out)
		if resp.Close {
			_ = cn.Close()
		} else {
			c.release(cn)
		}
		return spans, err
	}
}

// newRequest builds rq's HTTP request.
func (c *Client) newRequest(rq *request) *http.Request {
	req := &http.Request{
		Method: rq.method,
		URL:    &url.URL{Path: rq.path, RawQuery: rq.query},
		Host:   c.host,
		Header: make(http.Header, 2),
	}
	if rq.contentType != "" {
		req.Header.Set("Content-Type", rq.contentType)
	}
	if rq.traceID != 0 {
		req.Header.Set(telemetry.TraceHeader, telemetry.FormatTraceID(rq.traceID))
	}
	if len(rq.body) > 0 {
		req.Body = io.NopCloser(bytes.NewReader(rq.body))
		req.ContentLength = int64(len(rq.body))
	}
	return req
}

// decodeReply checks a reply's status and decodes its body into out (see
// call).
func decodeReply(rq *request, status int, body []byte, out any) error {
	want := rq.want
	if want == 0 {
		want = http.StatusOK
	}
	if status != want {
		se := &StatusError{Code: status, Path: rq.path}
		var e errorResponse
		if json.Unmarshal(body, &e) == nil {
			se.Msg = e.Error
		}
		return se
	}
	switch out := out.(type) {
	case nil:
	case *string:
		*out = string(body)
	default:
		if err := json.Unmarshal(body, out); err != nil {
			return fmt.Errorf("client: %s decode: %w", rq.path, err)
		}
	}
	return nil
}

// drainMax bounds a reply body: error bodies are tiny and the largest
// reply (/metrics) is kilobytes, so a longer body is a faulty peer, and
// its call fails.
const drainMax = 1 << 20

// exchange writes req and reads its reply, the body to EOF into cn.body.
// replied reports whether any reply byte had arrived when err occurred.
func (cn *clientConn) exchange(req *http.Request, deadline time.Time) (resp *http.Response, replied bool, err error) {
	if err := cn.SetDeadline(deadline); err != nil {
		return nil, false, err
	}
	if err := req.Write(cn.bw); err != nil {
		return nil, false, err
	}
	if err := cn.bw.Flush(); err != nil {
		return nil, false, err
	}
	if _, err := cn.br.Peek(1); err != nil {
		return nil, false, err
	}
	if resp, err = http.ReadResponse(cn.br, req); err != nil {
		return nil, true, err
	}
	cn.body.Reset()
	cn.lr = io.LimitedReader{R: resp.Body, N: drainMax + 1}
	if _, err := cn.body.ReadFrom(&cn.lr); err != nil {
		return nil, true, err
	}
	if cn.body.Len() > drainMax {
		return nil, true, fmt.Errorf("reply body over %d bytes", drainMax)
	}
	return resp, true, nil
}

// dial opens a connection to the base URL's host by deadline.
func (c *Client) dial(deadline time.Time) (*clientConn, error) {
	nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", c.host)
	if err != nil {
		return nil, err
	}
	return &clientConn{Conn: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

// take pops the most recently used idle connection, nil when none is.
func (c *Client) take() *clientConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.idle)
	if n == 0 {
		return nil
	}
	cn := c.idle[n-1]
	c.idle[n-1] = nil
	c.idle = c.idle[:n-1]
	return cn
}

// release pools cn for the next call, or closes it when the pool is full
// or the Client closed.
func (c *Client) release(cn *clientConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < maxIdleConns {
		c.idle = append(c.idle, cn)
		cn = nil
	}
	c.mu.Unlock()
	if cn != nil {
		_ = cn.Close()
	}
}
