package server

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientReusesConnectionsOnErrorPaths: a response body closed before
// it is fully read forces the transport to drop the TCP connection, so a
// client that never drains error replies opens a fresh connection per
// failed request — the connection-churn leak sustained cluster load
// surfaces when a node is degraded. Every client path (success, 4xx, 5xx,
// stats, flush, health) must leave the connection reusable: the whole
// sequence below should ride a single keep-alive connection.
func TestClientReusesConnectionsOnErrorPaths(t *testing.T) {
	srv, flaky, enc := newFlakyServerConnCounted(t)
	defer srv.ts.Close()
	client := NewClient(srv.ts.URL)
	good := enc.Embed("aspirin dosage")

	for i := 0; i < 5; i++ {
		if _, err := client.Retrieve(good); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Retrieve([]float32{1}); err == nil { // 400
			t.Fatal("dimension mismatch should error")
		}
		flaky.broken.Store(true)
		if _, err := client.Retrieve(good); err == nil { // 500
			t.Fatal("broken backend should error")
		}
		if _, err := client.RetrieveBatch([][]float32{good}); err == nil { // 500
			t.Fatal("broken backend should error on the batch path")
		}
		flaky.broken.Store(false)
		if _, err := client.Stats(); err != nil {
			t.Fatal(err)
		}
		if err := client.Flush(); err != nil {
			t.Fatal(err)
		}
		if !client.Healthy() {
			t.Fatal("health check failed")
		}
	}
	if n := srv.conns.Load(); n != 1 {
		t.Errorf("sequential requests opened %d connections, want 1 (bodies not drained before close?)", n)
	}
}

// connCountedServer wraps an httptest server that counts accepted TCP
// connections.
type connCountedServer struct {
	ts    *httptest.Server
	conns atomic.Int64
}

func newFlakyServerConnCounted(t *testing.T) (*connCountedServer, *flakyDB, interface{ Embed(string) []float32 }) {
	t.Helper()
	ts, flaky, enc := newFlakyServer(t)
	handler := ts.Config.Handler
	ts.Close()

	out := &connCountedServer{}
	out.ts = httptest.NewUnstartedServer(handler)
	out.ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			out.conns.Add(1)
		}
	}
	out.ts.Start()
	return out, flaky, enc
}

// drainClose reads the rest of a net/http response body before closing
// it, so the tests' own http.Get calls leave their connections reusable.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
