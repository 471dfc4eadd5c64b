package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

const testSeed = 7

// TestQuickRunEmitsEveryMetric runs every workload both ways at the
// quick shape: each run must pass its own output checks (responses,
// hit/miss accounting, span trees) and print exactly the named metrics.
func TestQuickRunEmitsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w, quickParams(), testSeed, 200*time.Millisecond, traced, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			want := endToEndUnits
			if traced {
				want = perLayerUnits
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: report %+v", w.name, traced, rep)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, name, got, unit)
				}
			}
			if !traced {
				for name, m := range rep.Metrics {
					// The quick caches hold a few KB, less than the heap
					// other tests leave to be collected: no sign to assert.
					if m.Value <= 0 && name != "live_heap_mb" {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, m.Value)
					}
				}
			}
		}
		if _, err := os.Stat(dir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: trace file: %v", w.name, err)
		}
	}
}

// TestSpansAccountForTheRequest replays a fixed stream segment traced:
// every tree must be well formed, and the self times of all spans must
// add up to the root spans' time, on every workload.
func TestSpansAccountForTheRequest(t *testing.T) {
	for _, w := range workloads {
		tr := newTracer(w)
		s, err := setup(w, testSeed, quickParams(), t.TempDir(), tr)
		if err != nil {
			t.Fatal(err)
		}
		res := s.run(0, 600)
		if err := s.checkAccounting(res); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		reqs, err := tr.requests()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(reqs) != 600 {
			t.Errorf("%s: %d span trees for 600 requests", w.name, len(reqs))
		}
		var selfSum, rootSum time.Duration
		for i := range reqs {
			r := &reqs[i]
			for k := spanKind(0); k < numKinds; k++ {
				if !r.has[k] {
					continue
				}
				selfSum += tr.self(r, k)
				if _, child := tr.parentOf(k); !child {
					rootSum += r.dur(k)
				}
			}
			if got, want := r.has[kindHandler], w.http; got != want {
				t.Fatalf("%s: request %d handler span present=%v, want %v", w.name, r.s[kindGet].req, got, want)
			}
			if r.has[kindSearch] == r.s[kindGet].hit || r.has[kindPut] == r.s[kindGet].hit {
				t.Fatalf("%s: request %d: hit=%v but search=%v put=%v", w.name, r.s[kindGet].req,
					r.s[kindGet].hit, r.has[kindSearch], r.has[kindPut])
			}
		}
		if selfSum != rootSum {
			t.Errorf("%s: self times sum to %v, root spans to %v", w.name, selfSum, rootSum)
		}
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}
}

// TestGeneratorIsAPureFunctionOfTheSeed: same seed, same inputs and
// streams; another seed, others.
func TestGeneratorIsAPureFunctionOfTheSeed(t *testing.T) {
	p := quickParams()
	a, b, c := genInputs(testSeed, p), genInputs(testSeed, p), genInputs(testSeed+1, p)
	if !reflect.DeepEqual(a.corpus, b.corpus) || !reflect.DeepEqual(a.centres, b.centres) || !reflect.DeepEqual(a.sweep, b.sweep) {
		t.Fatal("same seed generated different inputs")
	}
	if reflect.DeepEqual(a.corpus, c.corpus) {
		t.Fatal("different seeds generated the same corpus")
	}
	qa, qb, qc := make(vec.Vector, p.dim), make(vec.Vector, p.dim), make(vec.Vector, p.dim)
	seen := map[uint64]bool{}
	for _, s := range []stream{streamZipf, streamCold} {
		for i := 599; i >= 0; i-- { // any order: a query depends on its index alone
			ca, cb := a.query(s, i, qa), b.query(s, i, qb)
			c.query(s, i, qc)
			if ca != cb || !reflect.DeepEqual(qa, qb) {
				t.Fatalf("stream %d query %d differs between two generators of one seed", s, i)
			}
			if reflect.DeepEqual(qa, qc) {
				t.Fatalf("stream %d query %d is the same under two seeds", s, i)
			}
			if key := embeddingKey(qa); seen[key] {
				t.Fatalf("stream %d query %d repeats an earlier embedding", s, i)
			} else {
				seen[key] = true
			}
		}
	}
}

// TestColdStreamSchedule: a re-ask slot repeats the centre asked
// coldLag queries before, and no other centre returns within a sweep.
func TestColdStreamSchedule(t *testing.T) {
	p := quickParams()
	in := genInputs(testSeed, p)
	last := map[int]int{}
	for i := 0; i < 600; i++ {
		c := in.coldCentre(i)
		prev, seen := last[c]
		reask := i%p.coldReask == p.coldReask-1 && i >= p.coldLag
		switch {
		case reask && (!seen || prev != i-p.coldLag):
			t.Fatalf("query %d should re-ask the centre of query %d", i, i-p.coldLag)
		case !reask && seen && i-prev < p.centres && i >= p.coldLag+p.coldReask:
			t.Fatalf("query %d returns to centre %d after only %d queries", i, c, i-prev)
		}
		if !reask {
			last[c] = i
		}
	}
}

// TestExactTopKMatchesTheIndex: the ground truth the checks rest on is
// what vectordb.FlatIndex.Search returns.
func TestExactTopKMatchesTheIndex(t *testing.T) {
	p := quickParams()
	in := genInputs(testSeed, p)
	index, err := vectordb.NewFlatFromVectors(in.corpus, vec.L2Distance)
	if err != nil {
		t.Fatal(err)
	}
	q := make(vec.Vector, p.dim)
	for i := 0; i < 300; i++ {
		centre := in.query(streamZipf, i, q)
		want, err := index.Search(q, p.k)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.exactTopK(q, centre, nil); !reflect.DeepEqual(vec.IDs(got), vec.IDs(want)) {
			t.Fatalf("query %d: exactTopK %v, index %v", i, vec.IDs(got), vec.IDs(want))
		}
	}
}

// TestDecoratorsDoNotChangeOutcomes replays one stream segment, one
// request at a time, through a traced and an untraced system: same
// hits, same documents. Over HTTP this also shows an embedding survives
// the JSON hop bit for bit, which the request-id recovery relies on.
func TestDecoratorsDoNotChangeOutcomes(t *testing.T) {
	p := quickParams()
	for _, w := range workloads {
		plain, err := setup(w, testSeed, p, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(w)
		traced, err := setup(w, testSeed, p, t.TempDir(), tr)
		if err != nil {
			t.Fatal(err)
		}
		q := make(vec.Vector, p.dim)
		for i := plain.next; i < plain.next+600; i++ {
			plain.in.query(w.stream, i, q)
			docsA, hitA, errA := plain.call(0, q)
			tr.begin(0, i, q)
			docsB, hitB, errB := traced.call(0, q)
			if errA != nil || errB != nil {
				t.Fatalf("%s query %d: %v / %v", w.name, i, errA, errB)
			}
			if hitA != hitB || !reflect.DeepEqual(docsA, docsB) {
				t.Fatalf("%s query %d: untraced hit=%v %v, traced hit=%v %v", w.name, i, hitA, docsA, hitB, docsB)
			}
		}
		for _, s := range tr.snapshot() {
			if s.req < 0 {
				t.Fatalf("%s: a %s span lost its request", w.name, tr.name(s.kind))
			}
		}
		if err := plain.stop(); err != nil {
			t.Error(err)
		}
		if err := traced.stop(); err != nil {
			t.Error(err)
		}
	}
}

// TestBenchmarkJSONNamesWhatBenchEmits holds BENCHMARK.json and the
// program to the same workloads and metrics.
func TestBenchmarkJSONNamesWhatBenchEmits(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	units := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, e := range list {
			m[e.Name] = e.Unit
		}
		return m
	}
	if got := units(spec.EndToEnd); !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("end_to_end: BENCHMARK.json %v, bench %v", keys(got), keys(endToEndUnits))
	}
	if got := units(spec.PerLayer); !reflect.DeepEqual(got, perLayerUnits) {
		t.Errorf("per_layer: BENCHMARK.json %v, bench %v", keys(got), keys(perLayerUnits))
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
