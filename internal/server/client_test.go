package server

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countedServer serves handler on a loopback listener whose server
// closes a connection after idle without a request (0: never), and
// counts the connections it accepts.
func countedServer(t *testing.T, handler http.Handler, idle time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(handler)
	ts.Config.IdleTimeout = idle
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &conns
}

// TestClientRedialsAfterIdleClose: the server closes a keep-alive
// connection after 20 ms without a request. The next call takes that
// connection from the pool, fails before any reply byte arrives, and is
// sent once more on a fresh dial, so the caller sees one successful call
// over the server's second connection.
func TestClientRedialsAfterIdleClose(t *testing.T) {
	srv, _, enc := newTestServer(t, false, false)
	ts, conns := countedServer(t, srv.Handler(), 20*time.Millisecond)
	client := NewClient(ts.URL)
	defer client.Close()
	q := enc.Embed("aspirin heart attack prevention dosage")
	if _, err := client.Retrieve(q); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := client.Retrieve(q); err != nil {
		t.Fatalf("call after the server closed the idle connection: %v", err)
	}
	if n := conns.Load(); n != 2 {
		t.Errorf("%d server-side connections, want 2", n)
	}
}

// TestClientDeadline: one deadline covers the whole call. A handler that
// blocks past the client's 50 ms fails the call within 250 ms, the
// timed-out connection is closed instead of pooled, and the next call
// dials a new one, which the calls after it reuse.
func TestClientDeadline(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("POST /v1/retrieve", func(http.ResponseWriter, *http.Request) { <-release })
	ts, conns := countedServer(t, mux, 0)
	defer close(release) // before the server's cleanup waits for the handler
	client := NewClientWithTimeout(ts.URL, 50*time.Millisecond)
	defer client.Close()

	if !client.Healthy() { // pools the first connection
		t.Fatal("health check failed")
	}
	start := time.Now()
	_, err := client.Retrieve([]float32{1})
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Errorf("a 50 ms deadline returned after %v", elapsed)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blocked handler: got %v, want a deadline error", err)
	}
	for i := 0; i < 3; i++ {
		if !client.Healthy() {
			t.Fatal("health check after the timeout failed")
		}
	}
	if n := conns.Load(); n != 2 {
		t.Errorf("%d server-side connections, want 2: the timed-out one, then one for every later call", n)
	}
}

// TestClientConcurrentCalls: 8 goroutines × 50 calls share one Client
// without an error, and after Close the goroutine count is back to its
// baseline: the Client runs no goroutine of its own, and every
// server-side connection ends once the Client closes its end.
func TestClientConcurrentCalls(t *testing.T) {
	srv, _, enc := newTestServer(t, false, false)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	q := enc.Embed("aspirin heart attack prevention dosage")
	baseline := runtime.NumGoroutine()

	client := NewClient(ts.URL)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := client.Retrieve(q); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines 2 s after Close, %d before the calls", n, baseline)
	}
}

// TestRebalanceNowDialsItsOwn: a rebalance is not repeatable, so it never
// rides a pooled connection that could fail under it and be resent.
func TestRebalanceNowDialsItsOwn(t *testing.T) {
	reb := &fakeRebalancer{}
	ts, conns := countedServer(t, newRebalanceServer(t, reb).Handler(), 0)
	client := NewClient(ts.URL)
	defer client.Close()
	if !client.Healthy() {
		t.Fatal("health check failed")
	}
	if _, err := client.RebalanceNow(); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 2 {
		t.Errorf("%d server-side connections, want 2: RebalanceNow took the pooled one", n)
	}
	if reb.triggers != 1 {
		t.Errorf("%d triggers, want 1", reb.triggers)
	}
}

// TestClientRejectsBadBase: a base URL other than http://host:port fails
// every call, without a request.
func TestClientRejectsBadBase(t *testing.T) {
	for _, base := range []string{
		"https://127.0.0.1:8080", "http://127.0.0.1", "http://127.0.0.1:8080/prefix",
		"http://:8080", "127.0.0.1:8080", "http://u@127.0.0.1:8080", "http://[::1",
	} {
		client := NewClient(base)
		if client.Healthy() {
			t.Errorf("%s: health check passed", base)
		}
		if _, err := client.Stats(); err == nil {
			t.Errorf("%s: Stats returned no error", base)
		}
	}
}
