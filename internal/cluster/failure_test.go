package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"proximity/internal/vec"
)

// TestClusterNodeDownMidBatch: killing a node while a gathered batch is
// bound for it fans the failure out to every waiter, each of which
// retries on the next ring replica — the acceptance criterion's "a
// killed node degrades throughput but produces zero failed queries".
func TestClusterNodeDownMidBatch(t *testing.T) {
	c, nodes, _ := startCluster(t, 3, Options{Seed: 7})
	// A long cooldown so the killed node stays sidelined for the whole
	// test once discovered.
	c.cooldown = time.Minute
	qs := queries(96, 11)

	// Find a node that owns live traffic, then kill it.
	victim := c.RouteFor(qs[0])[0]
	var victimNode *testNode
	for _, n := range nodes {
		if n.base == victim {
			victimNode = n
		}
	}
	if err := victimNode.stop(); err != nil {
		t.Fatal(err)
	}

	// Fire all queries concurrently: those owned by the victim gather
	// into batches whose flush fails, fans out, and retries elsewhere.
	var wg sync.WaitGroup
	var failures, served atomic.Int64
	for _, q := range qs {
		wg.Add(1)
		go func(q vec.Vector) {
			defer wg.Done()
			if _, _, err := c.Retrieve(q); err != nil {
				t.Errorf("query failed despite replicas: %v", err)
				failures.Add(1)
				return
			}
			served.Add(1)
		}(q)
	}
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d queries failed; replica retry should absorb a dead node", failures.Load())
	}
	if served.Load() != int64(len(qs)) {
		t.Fatalf("served %d of %d", served.Load(), len(qs))
	}
	rs := c.RouterStats()
	if rs.Retried == 0 {
		t.Error("some queries must have needed the backup replica")
	}
	if rs.Failed != 0 {
		t.Errorf("router failed count = %d, want 0", rs.Failed)
	}

	// The victim is sidelined: later queries it owns skip it without
	// paying a connection attempt, and Status reports it unhealthy.
	for _, ns := range c.Status() {
		if ns.Node == victim {
			if ns.Healthy {
				t.Error("killed node should be marked unhealthy")
			}
			if ns.Reachable {
				t.Error("killed node should be unreachable")
			}
		}
	}
}

// TestClusterNodeRecovery: a sidelined node rejoins service once its
// cooldown expires and a health probe succeeds.
func TestClusterNodeRecovery(t *testing.T) {
	c, nodes, db := startCluster(t, 2, Options{Seed: 7})
	c.cooldown = 10 * time.Millisecond
	q := queries(1, 12)[0]
	victim := c.RouteFor(q)[0]
	var victimNode *testNode
	for _, n := range nodes {
		if n.base == victim {
			victimNode = n
			_ = n.stop()
		}
	}

	// Query: served by the survivor via retry, victim marked down.
	if _, _, err := c.Retrieve(q); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ns := range c.Status() {
		if ns.Node == victim && !ns.Healthy {
			found = true
		}
	}
	if !found {
		t.Fatal("victim should be sidelined after the kill")
	}

	// Bring a middleware back on the victim's address. The listener is
	// closed, so the port is free to rebind.
	startNodeOn(t, db, victimNode.base[len("http://"):])

	// After the cooldown, routing re-probes /healthz and restores the
	// node.
	deadline := time.Now().Add(2 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		if _, _, err := c.Retrieve(q); err != nil {
			t.Fatal(err)
		}
		for _, ns := range c.Status() {
			if ns.Node == victim && ns.Healthy {
				recovered = true
			}
		}
		if recovered {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("victim never recovered despite a live /healthz")
	}
}

// TestClusterSubmitterStress: many goroutines hammering every surface of
// the per-node submitters at once — routed retrievals, stats snapshots,
// cache admin — to let -race shake out interleavings in the submitters'
// hand-off from one flight to the next.
func TestClusterSubmitterStress(t *testing.T) {
	c, _, _ := startCluster(t, 2, Options{Seed: 7})
	qs := queries(16, 14)
	const goroutines = 32
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := qs[(g+i)%len(qs)]
				if _, _, err := c.Retrieve(q); err != nil {
					failures.Add(1)
				}
				if i%7 == 0 {
					_ = c.RouterStats()
				}
				if i%13 == 0 {
					_ = c.Status()
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Errorf("%d retrievals failed under stress", failures.Load())
	}
	rs := c.RouterStats()
	if want := int64(goroutines * 20); rs.Served != want {
		t.Errorf("served %d, want %d", rs.Served, want)
	}
}

// TestClusterRebalanceUnderLoad: membership churn (join/leave) while
// queries are in flight neither fails queries nor races (-race).
func TestClusterRebalanceUnderLoad(t *testing.T) {
	c, _, db := startCluster(t, 3, Options{Seed: 7})
	extra := startNode(t, db)
	qs := queries(48, 13)

	var wg sync.WaitGroup
	stopChurn := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			if err := c.AddNode(extra.base); err != nil {
				t.Errorf("AddNode: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
			if err := c.RemoveNode(extra.base); err != nil {
				t.Errorf("RemoveNode: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var failures atomic.Int64
	for round := 0; round < 10; round++ {
		var qwg sync.WaitGroup
		for _, q := range qs {
			qwg.Add(1)
			go func(q vec.Vector) {
				defer qwg.Done()
				if _, ok := c.Get(q); !ok {
					failures.Add(1)
				}
			}(q)
		}
		qwg.Wait()
	}
	close(stopChurn)
	wg.Wait()

	if failures.Load() != 0 {
		t.Errorf("%d Gets missed during rebalance; churn must not drop queries", failures.Load())
	}
}

// TestClusterQueueFailsOverBehindHungCall: a node whose handler hangs
// holds one batched call; the queries that queue behind it must not
// send a second call to that node. When the test closes the node's
// connections, the held call fails, every query queued behind it fails
// over with it, and the replica serves them all.
func TestClusterQueueFailsOverBehindHungCall(t *testing.T) {
	db := newCorpus(t, 64, 1)
	var hits atomic.Int64
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		select {
		case entered <- struct{}{}:
		default: // a second call: counted, and released with the first
		}
		<-release
	}))
	defer victim.Close()
	replica := startNode(t, db)

	c, err := New(testDim, []string{victim.URL, replica.base}, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c.cooldown = time.Minute
	defer c.Close()
	var qs []vec.Vector
	for _, q := range queries(256, 17) {
		if c.RouteFor(q)[0] == victim.URL {
			qs = append(qs, q)
		}
		if len(qs) == 8 {
			break
		}
	}
	if len(qs) < 8 {
		t.Fatalf("only %d of 256 queries route to the victim first", len(qs))
	}

	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	retrieve := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = c.Retrieve(qs[i])
		}()
	}
	retrieve(0)
	<-entered
	for i := 1; i < len(qs); i++ {
		retrieve(i)
	}
	sub := c.nodes[victim.URL].sub
	for deadline := time.Now().Add(10 * time.Second); sub.Stats().Enqueued < int64(len(qs)); {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d queries reached the victim's submitter", sub.Stats().Enqueued, len(qs))
		}
		time.Sleep(100 * time.Microsecond)
	}
	victim.CloseClientConnections()
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d failed despite a live replica: %v", i, err)
		}
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("the victim saw %d requests, want 1", got)
	}
	if st := sub.Stats(); st.Flushes != 1 {
		t.Errorf("victim submitter stats = %+v, want 1 flush", st)
	}
	if rs := c.RouterStats(); rs.Served != int64(len(qs)) || rs.Retried != int64(len(qs)) || rs.Failed != 0 {
		t.Errorf("router stats = %+v, want all %d served by the replica", rs, len(qs))
	}
}
