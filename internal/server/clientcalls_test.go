package server

import (
	"net/http"
	"strconv"

	"proximity/internal/telemetry"
)

// The calls below reach endpoints that only tests drive through a
// Client; operators use curl.

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

// RebalanceNow triggers one manual rebalance action on the middleware
// (501 StatusError when the server has no controller configured). It is
// never sent twice: see Client.
func (c *Client) RebalanceNow() (RebalanceResponse, error) {
	var out RebalanceResponse
	_, err := c.call(&request{method: http.MethodPost, path: "/v1/rebalance",
		contentType: "application/json", body: []byte("{}"), once: true}, &out)
	return out, err
}
