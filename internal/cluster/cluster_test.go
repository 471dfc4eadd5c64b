package cluster

import (
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"proximity/internal/core"
	"proximity/internal/server"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

const testDim = 16

// testNode is one loopback middleware instance.
type testNode struct {
	base string
	stop func() error
}

// newCorpus builds a deterministic random corpus index shared by every
// node of a test cluster.
func newCorpus(t *testing.T, n int, seed uint64) *vectordb.FlatIndex {
	t.Helper()
	rng := vec.NewRand(seed)
	vecs := make([]vec.Vector, n)
	for i := range vecs {
		vecs[i] = vec.RandomGaussian(rng, testDim)
	}
	db, err := vectordb.NewFlatFromVectors(vecs, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// startNode spins one shard node — its own FLAT cache over the shared
// database — on an ephemeral loopback port.
func startNode(t *testing.T, db vectordb.DB) *testNode {
	return startNodeOn(t, db, "127.0.0.1:0")
}

// startNodeOn is startNode bound to an explicit address (restart tests
// rebind a killed node's port).
func startNodeOn(t *testing.T, db vectordb.DB, addr string) *testNode {
	t.Helper()
	bound, stop, err := nodeServer(t, db).Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	n := &testNode{base: "http://" + bound, stop: stop}
	t.Cleanup(func() { _ = n.stop() })
	return n
}

// nodeServer is one shard node's middleware: its own FLAT cache over the
// shared database.
func nodeServer(t *testing.T, db vectordb.DB) *server.Server {
	t.Helper()
	cache, err := core.NewFlat(testDim, core.Options{Capacity: 256, Tolerance: 0.25, Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Retriever: retr})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// startCluster spins n nodes over one shared corpus and a client routing
// across them.
func startCluster(t *testing.T, n int, opts Options) (*Client, []*testNode, *vectordb.FlatIndex) {
	t.Helper()
	db := newCorpus(t, 64, 1)
	nodes := make([]*testNode, n)
	bases := make([]string, n)
	for i := range nodes {
		nodes[i] = startNode(t, db)
		bases[i] = nodes[i].base
	}
	c, err := New(testDim, bases, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, nodes, db
}

// queries returns m deterministic query embeddings.
func queries(m int, seed uint64) []vec.Vector {
	rng := vec.NewRand(seed)
	out := make([]vec.Vector, m)
	for i := range out {
		out[i] = vec.RandomGaussian(rng, testDim)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, []string{"http://x"}, Options{}); err == nil {
		t.Error("zero dim should error")
	}
	if _, err := New(testDim, nil, Options{}); err == nil {
		t.Error("empty node list should error")
	}
}

// TestClusterRetrieveMatchesDirect: a routed retrieval returns exactly
// what the owning node would return directly, and repeats of the same
// query hit the owner's cache.
func TestClusterRetrieveMatchesDirect(t *testing.T) {
	c, _, db := startCluster(t, 3, Options{Seed: 7})
	qs := queries(32, 2)

	for i, q := range qs {
		docs, hit, err := c.Retrieve(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if hit {
			t.Errorf("query %d: cold cluster should miss node caches", i)
		}
		want, err := db.Search(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range want {
			if docs[j] != s.ID {
				t.Fatalf("query %d: docs %v, want IDs %v", i, docs, vec.IDs(want))
			}
		}
	}
	// Second pass: every query repeats, so its owner answers from cache.
	for i, q := range qs {
		_, hit, err := c.Retrieve(q)
		if err != nil {
			t.Fatalf("repeat query %d: %v", i, err)
		}
		if !hit {
			t.Errorf("repeat query %d: want a remote cache hit", i)
		}
	}
	rs := c.RouterStats()
	if rs.Served != int64(2*len(qs)) || rs.Failed != 0 {
		t.Errorf("router stats = %+v, want %d served, 0 failed", rs, 2*len(qs))
	}
	if rs.RemoteHits != int64(len(qs)) {
		t.Errorf("remote hits = %d, want %d", rs.RemoteHits, len(qs))
	}
}

// TestClusterRoutingIsStable: the same query always routes to the same
// node, and traffic spreads across the membership.
func TestClusterRoutingIsStable(t *testing.T) {
	c, _, _ := startCluster(t, 4, Options{Seed: 7})
	qs := queries(64, 3)
	owners := map[string]int{}
	for _, q := range qs {
		route := c.RouteFor(q)
		if len(route) != 4 {
			t.Fatalf("route %v should cover all 4 nodes", route)
		}
		for i := 0; i < 3; i++ {
			if got := c.RouteFor(q); got[0] != route[0] {
				t.Fatalf("routing unstable: %v then %v", route[0], got[0])
			}
		}
		owners[route[0]]++
	}
	if len(owners) < 2 {
		t.Errorf("64 queries all routed to %d node(s); expected spread", len(owners))
	}
}

// TestClusterGetFallsBackOnTotalFailure: the core.Cache surface reports
// a miss (never an error) when every replica is down, so a wrapping
// retriever can serve from its local database.
func TestClusterGetFallsBackOnTotalFailure(t *testing.T) {
	c, nodes, db := startCluster(t, 2, Options{Seed: 7})
	q := queries(1, 4)[0]

	if _, ok := c.Get(q); !ok {
		t.Fatal("healthy cluster should answer Get")
	}
	for _, n := range nodes {
		_ = n.stop()
	}
	if _, ok := c.Get(q); ok {
		t.Fatal("Get should report a miss with every node down")
	}
	if rs := c.RouterStats(); rs.Failed == 0 {
		t.Error("total failure should count as Failed")
	}

	// The drop-in promise: a retriever over the cluster cache degrades
	// to its local database instead of erroring.
	retr, err := core.NewCachedRetriever(c, db, core.RetrieverOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := retr.Retrieve(q)
	if err != nil {
		t.Fatalf("degraded retrieve: %v", err)
	}
	if res.Hit {
		t.Error("degraded retrieve should be a miss")
	}
	if len(res.Docs) != 2 {
		t.Errorf("degraded retrieve returned %d docs, want 2", len(res.Docs))
	}
}

// TestClusterBadInputNotRetried: a 4xx reply must surface immediately
// instead of burning retries — every replica would reject the same
// input. The wrong-dimension and non-finite cases are caught
// client-side; server-side 4xx handling is exercised through the status
// classification tests in internal/server. A non-finite query sent
// alongside valid ones fails alone: the node would refuse the whole
// batch that carried it.
func TestClusterBadInputNotRetried(t *testing.T) {
	c, _, _ := startCluster(t, 2, Options{Seed: 7})
	if _, _, err := c.Retrieve(vec.Vector{1, 2, 3}); !errors.Is(err, vec.ErrDimensionMismatch) {
		t.Fatalf("wrong-dim query: got %v, want dimension mismatch", err)
	}
	if _, _, err := c.Retrieve(nil); err == nil {
		t.Fatal("nil query should error")
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		q := queries(1, 15)[0]
		q[3] = bad
		if _, _, err := c.Retrieve(q); !errors.Is(err, errNonFinite) {
			t.Fatalf("query with a %v component: got %v, want %v", bad, err, errNonFinite)
		}
	}
	if rs := c.RouterStats(); rs.Served != 0 || rs.Failed != 0 {
		t.Errorf("rejected input should not touch routing counters: %+v", rs)
	}

	one, _, _ := startCluster(t, 1, Options{Seed: 7})
	qs := queries(8, 16)
	qs[0][5] = float32(math.NaN())
	start := make(chan struct{})
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q vec.Vector) {
			defer wg.Done()
			<-start
			_, _, errs[i] = one.Retrieve(q)
		}(i, q)
	}
	close(start)
	wg.Wait()
	if !errors.Is(errs[0], errNonFinite) {
		t.Errorf("NaN query: got %v, want %v", errs[0], errNonFinite)
	}
	for i, err := range errs[1:] {
		if err != nil {
			t.Errorf("valid query %d sent beside a NaN query failed: %v", i+1, err)
		}
	}
	if rs := one.RouterStats(); rs.Served != int64(len(qs)-1) || rs.Failed != 0 {
		t.Errorf("router stats = %+v, want %d served, 0 failed", rs, len(qs)-1)
	}
}

// TestClusterSearchSurface: the core.Searcher view returns ranked,
// k-truncated, positionally-scored results.
func TestClusterSearchSurface(t *testing.T) {
	c, _, db := startCluster(t, 2, Options{Seed: 7})
	q := queries(1, 5)[0]

	if _, err := c.Search(q, 0); !errors.Is(err, vectordb.ErrBadK) {
		t.Fatalf("k=0: got %v, want ErrBadK", err)
	}
	got, err := c.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Search(k=1) returned %d results", len(got))
	}
	want, err := db.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID != want[0].ID {
		t.Errorf("Search ID = %d, want %d", got[0].ID, want[0].ID)
	}
}

// TestClusterCacheAdmin: Len/Capacity/Stats/Clear aggregate and fan out
// across nodes.
func TestClusterCacheAdmin(t *testing.T) {
	c, _, _ := startCluster(t, 3, Options{Seed: 7})
	qs := queries(24, 6)
	for _, q := range qs {
		if _, ok := c.Get(q); !ok {
			t.Fatal("healthy cluster should answer")
		}
	}
	if got := c.Len(); got != len(qs) {
		t.Errorf("Len = %d, want %d (one entry per unique query)", got, len(qs))
	}
	// The router holds no lines even while its nodes do.
	if got := c.Entries(); got != nil {
		t.Errorf("Entries = %d entries, want nil", len(got))
	}
	if c.Capacity() != 3*256 {
		t.Errorf("Capacity = %d, want %d", c.Capacity(), 3*256)
	}
	st := c.Stats()
	if st.Misses != int64(len(qs)) {
		t.Errorf("aggregated misses = %d, want %d", st.Misses, len(qs))
	}
	c.Clear()
	if got := c.Len(); got != 0 {
		t.Errorf("Len after Clear = %d, want 0", got)
	}

	status := c.Status()
	if len(status) != 3 {
		t.Fatalf("Status covers %d nodes, want 3", len(status))
	}
	var flushes int64
	for _, ns := range status {
		if !ns.Reachable || !ns.Healthy {
			t.Errorf("node %s should be healthy and reachable: %+v", ns.Node, ns)
		}
		flushes += ns.Submit.Flushes
	}
	if flushes == 0 {
		t.Error("submitter counters should show batch flushes")
	}
}

// TestClusterSubmitterCoalesces: concurrent queries bound for the same
// node gather into shared /v1/retrieve/batch calls — strictly fewer
// flushes than queries.
func TestClusterSubmitterCoalesces(t *testing.T) {
	c, _, _ := startCluster(t, 1, Options{Seed: 7})
	qs := queries(64, 8)
	errs := make(chan error, len(qs))
	for _, q := range qs {
		go func(q vec.Vector) {
			_, _, err := c.Retrieve(q)
			errs <- err
		}(q)
	}
	for range qs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := c.Status()[0]
	if st.Submit.Enqueued != int64(len(qs)) {
		t.Fatalf("submitter enqueued %d, want %d", st.Submit.Enqueued, len(qs))
	}
	if st.Submit.Flushes >= int64(len(qs)) {
		t.Errorf("submitter made %d flushes for %d queries; expected coalescing", st.Submit.Flushes, len(qs))
	}
	if mean := st.Submit.MeanBatch(); mean <= 1 {
		t.Errorf("mean batch %.2f, want > 1", mean)
	}
}

// TestClusterRemoveNode: a leaving node's keys move to survivors and its
// submitter drains; queries keep succeeding throughout.
func TestClusterRemoveNode(t *testing.T) {
	c, nodes, _ := startCluster(t, 3, Options{Seed: 7})
	qs := queries(30, 9)
	for _, q := range qs {
		if _, _, err := c.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}
	removed := nodes[0].base
	if err := c.RemoveNode(removed); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes(); len(got) != 2 {
		t.Fatalf("membership after remove = %v", got)
	}
	for _, q := range qs {
		route := c.RouteFor(q)
		for _, n := range route {
			if n == removed {
				t.Fatalf("removed node still in route %v", route)
			}
		}
		if _, _, err := c.Retrieve(q); err != nil {
			t.Fatalf("post-remove retrieve: %v", err)
		}
	}
	if err := c.RemoveNode(removed); err == nil {
		t.Error("removing a removed node should error")
	}
	if err := c.AddNode(removed); err != nil {
		t.Fatal(err)
	}
	if got := c.Nodes(); len(got) != 3 {
		t.Fatalf("membership after re-add = %v", got)
	}
}

// TestRemovedNodeConnectionsClose: removing a node closes the router's
// connections to it, the data path's and the admin client's alike, so
// the node sees every one of them reach StateClosed instead of holding
// it open until its idle timeout.
func TestRemovedNodeConnectionsClose(t *testing.T) {
	db := newCorpus(t, 64, 1)
	var mu sync.Mutex
	opened, open := 0, map[net.Conn]bool{}
	ts := httptest.NewUnstartedServer(nodeServer(t, db).Handler())
	ts.Config.ConnState = func(conn net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			opened++
			open[conn] = true
		case http.StateClosed, http.StateHijacked:
			delete(open, conn)
		}
	}
	ts.Start()
	defer ts.Close()
	watched := ts.URL
	other := startNode(t, db)

	c, err := New(testDim, []string{watched, other.base}, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range queries(30, 9) {
		if _, _, err := c.Retrieve(q); err != nil {
			t.Fatal(err)
		}
	}
	c.Status() // the admin client's connection
	mu.Lock()
	before := opened
	mu.Unlock()
	if before == 0 {
		t.Fatal("the watched node saw no connection")
	}

	if err := c.RemoveNode(watched); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		left := len(open)
		mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of the removed node's %d connections still open 2 s after RemoveNode", left, before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClusterClosed(t *testing.T) {
	c, _, _ := startCluster(t, 1, Options{Seed: 7})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Retrieve(queries(1, 10)[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("Retrieve after Close: got %v, want ErrClosed", err)
	}
	if err := c.AddNode("http://x"); !errors.Is(err, ErrClosed) {
		t.Errorf("AddNode after Close: got %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}
