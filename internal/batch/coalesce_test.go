package batch_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"proximity/internal/batch"
	"proximity/internal/telemetry"
	"proximity/internal/vec"
)

// gatedSearcher blocks every Search until release is closed, so the test
// can hold leader flights open while duplicate requests pile up. Calls
// are counted per key (the first embedding element).
type gatedSearcher struct {
	release chan struct{}
	err     error

	mu    sync.Mutex
	calls map[uint32]int
}

func newGatedSearcher() *gatedSearcher {
	return &gatedSearcher{release: make(chan struct{}), calls: make(map[uint32]int)}
}

func (g *gatedSearcher) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	<-g.release
	key := uint32(q[0])
	g.mu.Lock()
	g.calls[key]++
	g.mu.Unlock()
	if g.err != nil {
		return nil, g.err
	}
	out := make([]vec.Scored, k)
	for i := range out {
		out[i] = vec.Scored{ID: int(q[0])*100 + i, Dist: float32(i)}
	}
	return out, nil
}

func (g *gatedSearcher) callsFor(key uint32) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls[key]
}

// keyByFirstElement fingerprints a query by its first element, making the
// test's duplicate structure explicit.
func keyByFirstElement(q vec.Vector) uint32 { return uint32(q[0]) }

// waitForStats polls until the coalescer reaches the wanted counters —
// every increment happens before the corresponding goroutine blocks, so
// reaching them means every duplicate is parked on a leader's flight.
func waitForStats(t *testing.T, c *batch.Coalescer, leads, coalesced int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := c.Stats()
		if st.Leads == leads && st.Coalesced == coalesced {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	st := c.Stats()
	t.Fatalf("coalescer never settled: leads=%d coalesced=%d, want %d/%d",
		st.Leads, st.Coalesced, leads, coalesced)
}

// TestCoalescerStress hammers the coalescer from many goroutines issuing
// duplicate and distinct misses concurrently (run under -race in CI):
// exactly one database search per unique fingerprint must happen while
// flights overlap, and every caller must receive the full, correct result
// set — no lost results, no shared mutable slices.
func TestCoalescerStress(t *testing.T) {
	const (
		unique = 8
		dupes  = 24 // goroutines per unique key
		k      = 5
	)
	searcher := newGatedSearcher()
	co, err := batch.NewCoalescer(searcher, keyByFirstElement)
	if err != nil {
		t.Fatal(err)
	}

	total := unique * dupes
	results := make([][]vec.Scored, total)
	errs := make([]error, total)
	var wg sync.WaitGroup
	for g := 0; g < total; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := g % unique
			q := vec.Vector{float32(key), 0}
			res, err := co.Search(q, k)
			results[g], errs[g] = res, err
			if err == nil && len(res) > 0 {
				// Scribble on the returned slice: every caller owns its
				// result, so -race must stay quiet and nobody else's
				// result may change.
				res[0] = vec.Scored{ID: -1, Dist: -1}
			}
		}(g)
	}

	// All flights in-flight: one leader per unique key, everyone else
	// parked on a flight. Only then release the searches.
	waitForStats(t, co, unique, int64(total-unique))
	close(searcher.release)
	wg.Wait()

	for key := uint32(0); key < unique; key++ {
		if got := searcher.callsFor(key); got != 1 {
			t.Errorf("key %d: %d database searches, want exactly 1", key, got)
		}
	}
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: unexpected error %v", g, err)
		}
		res := results[g]
		if len(res) != k {
			t.Fatalf("goroutine %d: got %d results, want %d (lost results)", g, len(res), k)
		}
		key := g % unique
		for i := 1; i < k; i++ { // res[0] was deliberately scribbled
			want := vec.Scored{ID: key*100 + i, Dist: float32(i)}
			if res[i] != want {
				t.Fatalf("goroutine %d result[%d] = %+v, want %+v", g, i, res[i], want)
			}
		}
	}
	if got := co.Inflight(); got != 0 {
		t.Errorf("inflight after drain = %d, want 0", got)
	}
}

// TestCoalescerErrorFanOut verifies a leader's failure reaches every
// coalesced follower.
func TestCoalescerErrorFanOut(t *testing.T) {
	searcher := newGatedSearcher()
	wantErr := errors.New("index unavailable")
	searcher.err = wantErr
	co, err := batch.NewCoalescer(searcher, keyByFirstElement)
	if err != nil {
		t.Fatal(err)
	}

	const followers = 7
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	for g := 0; g <= followers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = co.Search(vec.Vector{1, 0}, 3)
		}(g)
	}
	waitForStats(t, co, 1, followers)
	close(searcher.release)
	wg.Wait()

	for g, err := range errs {
		if !errors.Is(err, wantErr) {
			t.Errorf("goroutine %d error = %v, want %v", g, err, wantErr)
		}
	}
}

// TestCoalescerSequentialNotDeduplicated pins the contract that only
// overlapping requests coalesce: back-to-back repeats each search the
// database (deduplicating those is the cache's job).
func TestCoalescerSequentialNotDeduplicated(t *testing.T) {
	searcher := newGatedSearcher()
	close(searcher.release) // never block
	co, err := batch.NewCoalescer(searcher, keyByFirstElement)
	if err != nil {
		t.Fatal(err)
	}
	q := vec.Vector{3, 0}
	for i := 0; i < 3; i++ {
		if _, err := co.Search(q, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := searcher.callsFor(3); got != 3 {
		t.Errorf("sequential repeats reached the database %d times, want 3", got)
	}
	st := co.Stats()
	if st.Leads != 3 || st.Coalesced != 0 {
		t.Errorf("stats = %+v, want 3 leads / 0 coalesced", st)
	}
}

// TestCoalescerDistinctK verifies that the same embedding asked with
// different k values does not share a flight (the results differ).
func TestCoalescerDistinctK(t *testing.T) {
	searcher := newGatedSearcher()
	co, err := batch.NewCoalescer(searcher, keyByFirstElement)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	res := make([][]vec.Scored, 2)
	for i, k := range []int{2, 6} {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			r, err := co.Search(vec.Vector{5, 0}, k)
			if err != nil {
				t.Error(err)
			}
			res[i] = r
		}(i, k)
	}
	waitForStats(t, co, 2, 0)
	close(searcher.release)
	wg.Wait()
	if len(res[0]) != 2 || len(res[1]) != 6 {
		t.Errorf("result lengths = %d/%d, want 2/6", len(res[0]), len(res[1]))
	}
	if got := searcher.callsFor(5); got != 2 {
		t.Errorf("distinct-k searches = %d, want 2", got)
	}
}

// TestVerifiedCoalescerCollision pins the coalescer's safety contract: two
// distinct embeddings whose fingerprints collide must NOT share a flight
// — each searches the database itself, so a hash collision can never
// serve (and let the retriever cache) another query's documents.
func TestVerifiedCoalescerCollision(t *testing.T) {
	searcher := newGatedSearcher()
	co, err := batch.NewCoalescer(searcher, keyByFirstElement)
	if err != nil {
		t.Fatal(err)
	}
	// Same first element → same key; different tails → distinct queries.
	q1 := vec.Vector{7, 1}
	q2 := vec.Vector{7, 2}

	var wg sync.WaitGroup
	results := make([][]vec.Scored, 2)
	for i, q := range []vec.Vector{q1, q2} {
		wg.Add(1)
		go func(i int, q vec.Vector) {
			defer wg.Done()
			res, err := co.Search(q, 3)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i, q)
	}
	// Exactly one goroutine leads; the collider bypasses the flight and
	// blocks in its own database search — wait for both, then release.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := co.Stats()
		if st.Leads == 1 && st.Collisions == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(searcher.release)
	wg.Wait()

	if got := searcher.callsFor(7); got != 2 {
		t.Errorf("colliding queries reached the database %d times, want 2 (no sharing)", got)
	}
	st := co.Stats()
	if st.Leads != 1 || st.Collisions != 1 || st.Coalesced != 0 {
		t.Errorf("stats = %+v, want 1 lead, 1 collision, 0 coalesced", st)
	}
	if results[0] == nil || results[1] == nil {
		t.Fatal("a collider lost its results")
	}
}

// Ensure the example fingerprint type assumptions hold.
var _ batch.KeyFunc = keyByFirstElement

// TestCoalescerFollowerSpanLink pins the trace attribution contract: a
// sampled follower's coalesce_wait span must carry the leader's trace ID
// as its link, so the leader's search stays discoverable from every
// request it served. An unsampled leader yields a zero link.
func TestCoalescerFollowerSpanLink(t *testing.T) {
	g := newGatedSearcher()
	c, err := batch.NewCoalescer(g, keyByFirstElement)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(1, 8) // sample every request
	leaderCtx, leaderTrace := tr.Start(context.Background())
	followerCtx, followerTrace := tr.Start(context.Background())
	if leaderTrace.ID() == 0 || followerTrace.ID() == 0 {
		t.Fatal("sampling off")
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := c.SearchContext(leaderCtx, vec.Vector{1, 0}, 2); err != nil {
			t.Error(err)
		}
	}()
	waitForStats(t, c, 1, 0)
	go func() {
		defer wg.Done()
		if _, err := c.SearchContext(followerCtx, vec.Vector{1, 0}, 2); err != nil {
			t.Error(err)
		}
	}()
	waitForStats(t, c, 1, 1)
	close(g.release)
	wg.Wait()
	var waits []telemetry.Span
	for _, s := range followerTrace.Spans() {
		if s.Stage == telemetry.StageCoalesceWait {
			waits = append(waits, s)
		}
	}
	if len(waits) != 1 {
		t.Fatalf("follower coalesce_wait spans = %d, want 1", len(waits))
	}
	if waits[0].Link != leaderTrace.ID() {
		t.Errorf("follower wait link = %d, want leader trace %d", waits[0].Link, leaderTrace.ID())
	}
	followerTrace.Finish()
	leaderTrace.Finish()

	// Unsampled leader (nil trace): followers still coalesce, link is 0.
	g2 := newGatedSearcher()
	c2, err := batch.NewCoalescer(g2, keyByFirstElement)
	if err != nil {
		t.Fatal(err)
	}
	_, f2Trace := tr.Start(context.Background())
	f2Ctx := telemetry.ContextWithTrace(context.Background(), f2Trace)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := c2.Search(vec.Vector{2, 0}, 2); err != nil { // untraced leader
			t.Error(err)
		}
	}()
	waitForStats(t, c2, 1, 0)
	go func() {
		defer wg.Done()
		if _, err := c2.SearchContext(f2Ctx, vec.Vector{2, 0}, 2); err != nil {
			t.Error(err)
		}
	}()
	waitForStats(t, c2, 1, 1)
	close(g2.release)
	wg.Wait()
	for _, s := range f2Trace.Spans() {
		if s.Stage == telemetry.StageCoalesceWait && s.Link != 0 {
			t.Errorf("unsampled leader produced link %d, want 0", s.Link)
		}
	}
	f2Trace.Finish()
}
