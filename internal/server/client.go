package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"proximity/internal/telemetry"
)

// Client is a typed HTTP client for the retrieval middleware.
type Client struct {
	base string
	http *http.Client
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

// NewClientWithTimeout is NewClient with an explicit HTTP deadline.
// Health probes and admin snapshots (the cluster router's /healthz and
// /v1/stats fetches) want to fail fast on a hung node rather than
// inherit the data path's generous timeout.
func NewClientWithTimeout(base string, timeout time.Duration) *Client {
	return &Client{
		base: base,
		http: &http.Client{Timeout: timeout},
	}
}

// Retrieve fetches documents for a pre-computed embedding, which travels
// as a ContentTypeF32 body.
func (c *Client) Retrieve(embedding []float32) (RetrieveResponse, error) {
	var out RetrieveResponse
	_, err := c.do("/v1/retrieve", ContentTypeF32, encodeF32(embedding), 0, &out)
	return out, err
}

// RetrieveTraced is Retrieve under an existing trace: the request
// carries traceID in the X-Proximity-Trace header, and the node's spans
// (recorded under that ID) come back decoded from the response header —
// the cluster router grafts them into the parent trace. traceID 0
// degrades to a plain Retrieve.
func (c *Client) RetrieveTraced(embedding []float32, traceID uint64) (RetrieveResponse, []telemetry.Span, error) {
	var out RetrieveResponse
	hdr, err := c.do("/v1/retrieve", ContentTypeF32, encodeF32(embedding), traceID, &out)
	// Span decode failures are dropped, not fatal: the retrieval result
	// matters more than its timeline.
	spans, _ := telemetry.UnmarshalSpans(hdr)
	return out, spans, err
}

// Traces fetches up to n recent sampled traces (n <= 0: all buffered).
func (c *Client) Traces(n int) ([]telemetry.TraceRecord, error) {
	url := c.base + "/v1/traces"
	if n > 0 {
		url += fmt.Sprintf("?n=%d", n)
	}
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("client: traces: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: resp.StatusCode, Path: "/v1/traces"}
	}
	var out TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("client: traces decode: %w", err)
	}
	return out.Traces, nil
}

// Health fetches the build-info health check.
func (c *Client) Health() (HealthResponse, error) {
	var out HealthResponse
	resp, err := c.http.Get(c.base + "/v1/healthz")
	if err != nil {
		return out, fmt.Errorf("client: healthz: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return out, &StatusError{Code: resp.StatusCode, Path: "/v1/healthz"}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("client: healthz decode: %w", err)
	}
	return out, nil
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return "", fmt.Errorf("client: metrics: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return "", &StatusError{Code: resp.StatusCode, Path: "/metrics"}
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, drainMax))
	if err != nil {
		return "", fmt.Errorf("client: metrics read: %w", err)
	}
	return string(b), nil
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
		_, err = c.do("/v1/retrieve/batch", ContentTypeF32, encodeF32(embeddings...), 0, &out)
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
	resp, err := c.http.Get(c.base + "/v1/stats")
	if err != nil {
		return out, fmt.Errorf("client: stats: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return out, &StatusError{Code: resp.StatusCode, Path: "/v1/stats"}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("client: stats decode: %w", err)
	}
	return out, nil
}

// Flush clears the cache; the server's counters are untouched.
func (c *Client) Flush() error {
	resp, err := c.http.Post(c.base+"/v1/flush", "application/json", nil)
	if err != nil {
		return fmt.Errorf("client: flush: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return &StatusError{Code: resp.StatusCode, Path: "/v1/flush"}
	}
	return nil
}

// RebalanceNow triggers one manual rebalance action on the middleware
// (501 StatusError when the server has no controller configured).
func (c *Client) RebalanceNow() (RebalanceResponse, error) {
	var out RebalanceResponse
	err := c.post("/v1/rebalance", struct{}{}, &out)
	return out, err
}

// Healthy reports whether the middleware answers its health check.
func (c *Client) Healthy() bool {
	resp, err := c.http.Get(c.base + "/healthz")
	if err != nil {
		return false
	}
	defer drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

func (c *Client) post(path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: marshal: %w", err)
	}
	_, err = c.do(path, "application/json", body, 0, out)
	return err
}

// do posts body and decodes a 200 reply into out; any other status is a
// *StatusError. A non-zero traceID rides the propagation header. The
// node's span header comes back raw, beside an error too (a failed
// attempt belongs on the timeline); only RetrieveTraced decodes it.
func (c *Client) do(path, contentType string, body []byte, traceID uint64, out interface{}) (string, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("client: request: %w", err)
	}
	req.Header.Set("Content-Type", contentType)
	if traceID != 0 {
		req.Header.Set(telemetry.TraceHeader, telemetry.FormatTraceID(traceID))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: %s: %w", path, err)
	}
	defer drainClose(resp.Body)
	spanHeader := resp.Header.Get(telemetry.TraceSpanHeader)
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Code: resp.StatusCode, Path: path}
		var e errorResponse
		if decodeErr := json.NewDecoder(resp.Body).Decode(&e); decodeErr == nil {
			se.Msg = e.Error
		}
		return spanHeader, se
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return spanHeader, fmt.Errorf("client: %s decode: %w", path, err)
	}
	return spanHeader, nil
}

// drainMax bounds how much of an unread body drainClose will consume
// before giving up on connection reuse; error bodies are tiny, so the
// limit only guards against a pathological peer.
const drainMax = 1 << 20

// drainClose reads the remaining response body before closing it. An
// http.Response body closed with bytes still buffered forces the
// transport to drop the underlying connection instead of returning it to
// the keep-alive pool — under sustained cluster load that turned every
// error reply (and every JSON decode that stopped at the value, leaving
// the trailing newline unread) into a fresh TCP connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, drainMax))
	_ = body.Close()
}
