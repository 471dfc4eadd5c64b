package loadgen

import (
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"proximity/internal/core"
	"proximity/internal/server"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
	"proximity/internal/workload"
)

const testDim = 16

// syntheticWorkload builds n queries over `unique` distinct embeddings,
// cycling so repeats can hit a cache.
func syntheticWorkload(n, unique int, seed uint64) workload.Workload {
	rng := vec.NewRand(seed)
	base := make([]vec.Vector, unique)
	for i := range base {
		base[i] = vec.Scale(vec.RandomUnit(rng, testDim), 10)
	}
	queries := make([]workload.Query, n)
	for i := range queries {
		q := i % unique
		queries[i] = workload.Query{
			Text:       fmt.Sprintf("q%d", q),
			Embedding:  base[q],
			Question:   q,
			Occurrence: i / unique,
		}
	}
	return workload.Workload{Name: "synthetic", Queries: queries}
}

// newTestRetriever wires a flat cache over a small flat index.
func newTestRetriever(t *testing.T) *core.CachedRetriever {
	t.Helper()
	rng := vec.NewRand(99)
	db, err := vectordb.NewFlatIndex(testDim, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := db.Add(vec.Scale(vec.RandomUnit(rng, testDim), 10)); err != nil {
			t.Fatal(err)
		}
	}
	cache, err := core.NewFlat(testDim, core.Options{Capacity: 64, Tolerance: 0.5, Policy: core.LRU})
	if err != nil {
		t.Fatal(err)
	}
	retr, err := core.NewCachedRetriever(cache, db, core.RetrieverOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	return retr
}

// countingTarget records every query index it serves.
type countingTarget struct {
	mu     sync.Mutex
	served map[int]int
	failOn func(q workload.Query) bool
}

func newCountingTarget() *countingTarget {
	return &countingTarget{served: make(map[int]int)}
}

func (t *countingTarget) Do(q workload.Query) (bool, error) {
	if t.failOn != nil && t.failOn(q) {
		return false, errors.New("induced failure")
	}
	t.mu.Lock()
	t.served[q.Occurrence*1000+q.Question]++
	t.mu.Unlock()
	return q.Occurrence > 0, nil
}

func TestScheduleDeterminism(t *testing.T) {
	a := Schedule(200, 500, 42)
	b := Schedule(200, 500, 42)
	if len(a) != 200 {
		t.Fatalf("schedule length %d, want 200", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs under the same seed: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets not monotonic at %d", i)
		}
	}
	c := Schedule(200, 500, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the identical schedule")
	}
	// Mean arrival spacing tracks 1/qps (loose 3x bound: 200 draws).
	mean := a[len(a)-1] / time.Duration(len(a))
	want := time.Second / 500
	if mean < want/3 || mean > want*3 {
		t.Errorf("mean spacing %v far from target %v", mean, want)
	}
}

func TestAssignmentDeterminism(t *testing.T) {
	a := Assignment(10, 4)
	want := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("Assignment = %v, want %v", a, want)
		}
	}
	b := Assignment(10, 4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("assignment is not stable")
		}
	}
}

func TestRunValidation(t *testing.T) {
	w := syntheticWorkload(10, 5, 1)
	if _, err := Run(nil, w, Options{}); err == nil {
		t.Error("nil target should error")
	}
	if _, err := Run(newCountingTarget(), workload.Workload{}, Options{}); err == nil {
		t.Error("empty workload should error")
	}
	if _, err := Run(newCountingTarget(), w, Options{Mode: OpenLoop}); err == nil {
		t.Error("open loop without QPS should error")
	}
	if _, err := Run(newCountingTarget(), w, Options{Mode: Mode(9)}); err == nil {
		t.Error("unknown mode should error")
	}
}

func TestModeStrings(t *testing.T) {
	for _, m := range []Mode{ClosedLoop, OpenLoop} {
		parsed, err := ParseMode(m.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != m {
			t.Errorf("round-trip %v != %v", parsed, m)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("unknown mode should error")
	}
}

// TestClosedLoopEveryQueryOnce: the driver issues each workload query
// exactly once across workers.
func TestClosedLoopEveryQueryOnce(t *testing.T) {
	w := syntheticWorkload(120, 30, 2)
	target := newCountingTarget()
	rep, err := Run(target, w, Options{Mode: ClosedLoop, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 120 {
		t.Errorf("Queries = %d, want 120", rep.Queries)
	}
	if rep.Errors != 0 {
		t.Errorf("Errors = %d, want 0", rep.Errors)
	}
	target.mu.Lock()
	defer target.mu.Unlock()
	total := 0
	for key, n := range target.served {
		if n != 1 {
			t.Errorf("query key %d served %d times", key, n)
		}
		total += n
	}
	if total != 120 {
		t.Errorf("served %d queries, want 120", total)
	}
	// Occurrence > 0 is a "hit" in the fake: 120 - 30 first occurrences.
	if rep.Hits != 90 {
		t.Errorf("Hits = %d, want 90", rep.Hits)
	}
	if hr := rep.HitRate(); hr < 0.74 || hr > 0.76 {
		t.Errorf("HitRate = %v, want 0.75", hr)
	}
}

// TestClosedLoopAgainstRetriever drives the real Algorithm 1 path.
func TestClosedLoopAgainstRetriever(t *testing.T) {
	retr := newTestRetriever(t)
	target, err := NewRetrieverTarget(retr)
	if err != nil {
		t.Fatal(err)
	}
	w := syntheticWorkload(200, 40, 3)
	rep, err := Run(target, w, Options{Mode: ClosedLoop, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("Errors = %d: %v", rep.Errors, rep.FirstError)
	}
	// 40 unique embeddings fit a 64-entry cache: all repeats hit.
	if rep.Hits != 160 {
		t.Errorf("Hits = %d, want 160", rep.Hits)
	}
	if rep.AchievedQPS <= 0 {
		t.Error("achieved QPS should be positive")
	}
	assertSummary(t, rep)
}

// TestOpenLoop paces a fast schedule and checks the report shape.
func TestOpenLoop(t *testing.T) {
	retr := newTestRetriever(t)
	target, err := NewRetrieverTarget(retr)
	if err != nil {
		t.Fatal(err)
	}
	w := syntheticWorkload(150, 30, 4)
	rep, err := Run(target, w, Options{
		Mode: OpenLoop, QPS: 20000, Workers: 8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != OpenLoop {
		t.Errorf("Mode = %v, want open", rep.Mode)
	}
	if rep.Errors != 0 {
		t.Fatalf("Errors = %d: %v", rep.Errors, rep.FirstError)
	}
	if rep.Queries != 150 {
		t.Errorf("Queries = %d, want 150", rep.Queries)
	}
	if rep.TargetQPS != 20000 {
		t.Errorf("TargetQPS = %v, want 20000", rep.TargetQPS)
	}
	// The schedule's last arrival bounds the run from below.
	if rep.Elapsed <= 0 {
		t.Error("Elapsed should be positive")
	}
	assertSummary(t, rep)
}

func TestErrorsAreCounted(t *testing.T) {
	w := syntheticWorkload(60, 20, 5)
	target := newCountingTarget()
	target.failOn = func(q workload.Query) bool { return q.Question%5 == 0 }
	rep, err := Run(target, w, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 12 { // 4 of 20 questions fail, 3 occurrences each
		t.Errorf("Errors = %d, want 12", rep.Errors)
	}
	if rep.FirstError == nil {
		t.Error("FirstError should be set")
	}
	if got := math.Round(rep.AchievedQPS * rep.Elapsed.Seconds()); got != float64(rep.Queries-rep.Errors) {
		t.Errorf("throughput counts %v samples, want %d successes", got, rep.Queries-rep.Errors)
	}
}

// TestHTTPTarget drives the middleware end-to-end over loopback HTTP.
func TestHTTPTarget(t *testing.T) {
	retr := newTestRetriever(t)
	srv, err := server.New(server.Config{Retriever: retr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w := syntheticWorkload(80, 20, 6)
	rep, err := Run(NewHTTPTarget(ts.URL), w, Options{Mode: ClosedLoop, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("Errors = %d: %v", rep.Errors, rep.FirstError)
	}
	if rep.Hits != 60 {
		t.Errorf("Hits = %d, want 60", rep.Hits)
	}
	assertSummary(t, rep)
}

func TestRender(t *testing.T) {
	retr := newTestRetriever(t)
	target, err := NewRetrieverTarget(retr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(target, syntheticWorkload(50, 10, 8), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"Load test", "closed loop", "hitRate%", "latency", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// assertSummary checks the latency summary invariants.
func assertSummary(t *testing.T, rep *Report) {
	t.Helper()
	if rep.P50 > rep.P95 || rep.P95 > rep.P99 || rep.P99 > rep.Max {
		t.Errorf("quantiles out of order: p50=%v p95=%v p99=%v max=%v",
			rep.P50, rep.P95, rep.P99, rep.Max)
	}
	if rep.Max <= 0 {
		t.Error("max latency should be positive")
	}
}
