package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"proximity/internal/telemetry"
	"proximity/internal/vec"
)

func TestNewIndexedValidation(t *testing.T) {
	if _, err := NewIndexed(0, IndexedOptions{Capacity: 10}); err == nil {
		t.Fatal("expected error for zero dim")
	}
	if _, err := NewIndexed(4, IndexedOptions{Capacity: 0}); err == nil {
		t.Fatal("expected error for zero capacity")
	}
	if _, err := NewIndexed(4, IndexedOptions{Capacity: 10, Tolerance: -1}); err == nil {
		t.Fatal("expected error for negative tolerance")
	}
	if _, err := NewIndexed(4, IndexedOptions{Capacity: 10, Tolerance: float32(math.NaN())}); err == nil {
		t.Fatal("expected error for NaN tolerance")
	}
	if _, err := NewIndexed(4, IndexedOptions{Capacity: 10, Crossover: -1}); err == nil {
		t.Fatal("expected error for negative crossover")
	}
	if _, err := NewIndexed(4, IndexedOptions{Capacity: 10, EfSearch: -1}); err == nil {
		t.Fatal("expected error for negative efSearch")
	}
}

// perturb returns a point at exactly the given L2 distance from v.
func perturb(rng *rand.Rand, v vec.Vector, dist float32) vec.Vector {
	dir := vec.RandomGaussian(rng, len(v))
	dir = vec.Scale(dir, dist/vec.Norm(dir))
	out := vec.Clone(v)
	for i := range out {
		out[i] += dir[i]
	}
	return out
}

// TestIndexedMatchesFlatProperty is the equivalence property test: with a
// beam wide enough to cover the whole graph, the quantized + re-ranked
// indexed lookup must return the SAME hit/miss decision and the SAME
// documents as the exact float32 flat scan — over random queries and
// adversarial queries placed just inside and just outside per-entry
// tolerances. Quantization may reorder candidate discovery, but exact
// re-ranking decides admission, so the observable behavior is identical.
func TestIndexedMatchesFlatProperty(t *testing.T) {
	const (
		dim = 8
		n   = 250
		tau = 0.5
	)
	rng := vec.NewRand(21)
	flat, err := NewFlat(dim, Options{Capacity: n + 10, Tolerance: tau})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndexed(dim, IndexedOptions{
		Capacity:  n + 10,
		Tolerance: tau,
		Crossover: 1,     // force the graph path
		EfSearch:  4 * n, // beam ≥ graph size: full coverage
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]vec.Vector, n)
	tols := make([]float32, n)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomGaussian(rng, dim), 2)
		tols[i] = tau * float32(rng.Float64())
		docs := []int{i}
		flat.PutWithTolerance(keys[i], docs, tols[i])
		idx.PutWithTolerance(keys[i], docs, tols[i])
	}

	check := func(q vec.Vector, what string) {
		t.Helper()
		fd, fok := flat.Get(q)
		id, iok := idx.Get(q)
		if fok != iok {
			t.Fatalf("%s: flat ok=%v, indexed ok=%v", what, fok, iok)
		}
		if fok && (len(fd) != 1 || len(id) != 1 || fd[0] != id[0]) {
			t.Fatalf("%s: flat docs=%v, indexed docs=%v", what, fd, id)
		}
	}

	// Random queries: a mix of hits and misses.
	for i := 0; i < 300; i++ {
		check(vec.Scale(vec.RandomGaussian(rng, dim), 2), fmt.Sprintf("random %d", i))
	}
	// Adversarial: just inside and just outside each entry's own
	// tolerance, where a quantization-perturbed admission would differ.
	for i, k := range keys {
		if tols[i] == 0 {
			continue
		}
		check(perturb(rng, k, tols[i]*0.99), fmt.Sprintf("inside entry %d", i))
		check(perturb(rng, k, tols[i]*1.01), fmt.Sprintf("outside entry %d", i))
	}
	s := *idx.Stats().Index
	if s.Searches == 0 || s.Reranks == 0 {
		t.Fatalf("graph path not exercised: %+v", s)
	}
}

// TestIndexedRecallFloor checks the default-beam indexed cache keeps at
// least 90% of the flat scan's hits on a within-tolerance workload.
func TestIndexedRecallFloor(t *testing.T) {
	const (
		dim = 16
		n   = 1500
		tau = 0.4
	)
	rng := vec.NewRand(23)
	flat, err := NewFlat(dim, Options{Capacity: n + 10, Tolerance: tau})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndexed(dim, IndexedOptions{Capacity: n + 10, Tolerance: tau, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]vec.Vector, n)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomGaussian(rng, dim), 2)
		flat.Put(keys[i], []int{i})
		idx.Put(keys[i], []int{i})
	}
	flatHits, idxHits := 0, 0
	for i := 0; i < 500; i++ {
		q := perturb(rng, keys[rng.IntN(n)], tau*float32(rng.Float64()))
		if _, ok := flat.Get(q); ok {
			flatHits++
		}
		if _, ok := idx.Get(q); ok {
			idxHits++
		}
	}
	if flatHits == 0 {
		t.Fatal("flat scan found no hits; workload is broken")
	}
	if recall := float64(idxHits) / float64(flatHits); recall < 0.9 {
		t.Fatalf("indexed hits %d / flat hits %d = %.3f, want ≥ 0.9", idxHits, flatHits, recall)
	}
}

// TestIndexedChurn drives FIFO eviction well past capacity and checks the
// cache and its graph stay bounded and queryable — and, with in-edge
// repair plus scheduled maintenance, that the churned graph's self-hit
// rate stays within 2% of a freshly rebuilt one holding the same entries.
func TestIndexedChurn(t *testing.T) {
	const (
		dim      = 8
		capacity = 200
		puts     = 1000
	)
	rng := vec.NewRand(29)
	idx, err := NewIndexed(dim, IndexedOptions{
		Capacity:    capacity,
		Tolerance:   0.3,
		Seed:        11,
		Maintenance: &MaintenanceOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	var recent []vec.Vector
	for i := 0; i < puts; i++ {
		k := vec.Scale(vec.RandomGaussian(rng, dim), 2)
		idx.Put(k, []int{i})
		recent = append(recent, k)
		if len(recent) > capacity {
			recent = recent[1:]
		}
	}
	if idx.Len() != capacity {
		t.Fatalf("len=%d, want %d", idx.Len(), capacity)
	}
	s := *idx.Stats().Index
	if s.Nodes != capacity {
		t.Fatalf("graph nodes=%d, want %d", s.Nodes, capacity)
	}
	if s.Slots > capacity+1 {
		t.Fatalf("graph slots=%d after churn, want ≤ %d (slot reuse)", s.Slots, capacity+1)
	}
	if s.ReusedSlots == 0 || s.SeveredInEdges == 0 {
		t.Fatalf("churn did not exercise in-edge repair: %+v", s)
	}
	if s.RepairPasses == 0 {
		t.Fatalf("maintenance never triggered over %d reuses: %+v", s.ReusedSlots, s)
	}
	if st := idx.Stats(); st.Evictions != puts-capacity {
		t.Fatalf("evictions=%d, want %d", st.Evictions, puts-capacity)
	}
	hitRate := func(c *IndexedCache) float64 {
		hits := 0
		for _, k := range recent {
			if docs, ok := c.Get(k); ok && len(docs) == 1 {
				hits++
			}
		}
		return float64(hits) / float64(len(recent))
	}
	// A freshly built graph over the identical resident set is the
	// ceiling: churned self-hit rate must be within 2% of it.
	fresh, err := NewIndexed(dim, IndexedOptions{Capacity: capacity, Tolerance: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range recent {
		fresh.Put(k, []int{puts - capacity + i})
	}
	churned, rebuilt := hitRate(idx), hitRate(fresh)
	if rebuilt == 0 {
		t.Fatal("fresh rebuild found no hits; workload is broken")
	}
	if churned < rebuilt-0.02 {
		t.Fatalf("post-churn self-hit rate %.3f vs fresh rebuild %.3f, want within 2%%", churned, rebuilt)
	}
}

// TestIndexedMatchesAlgorithm1 drives the oracle's op stream through an
// IndexedCache whose crossover is above its capacity, so that every
// lookup is FLAT's scan while every Put and eviction still maintains the
// graph.
func TestIndexedMatchesAlgorithm1(t *testing.T) {
	matchAlgorithm1(t, func(t testing.TB, dim int, opts Options) Cache {
		c, err := NewIndexed(dim, IndexedOptions{
			Capacity:    opts.Capacity,
			Tolerance:   opts.Tolerance,
			Policy:      opts.Policy,
			Crossover:   opts.Capacity + 1,
			Maintenance: &MaintenanceOptions{Every: 4, Budget: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

func TestIndexedLRU(t *testing.T) {
	idx, err := NewIndexed(2, IndexedOptions{Capacity: 2, Tolerance: 0.1, Policy: LRU, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := vec.Vector{0, 0}, vec.Vector{10, 0}, vec.Vector{0, 10}
	idx.Put(a, []int{1})
	idx.Put(b, []int{2})
	if _, ok := idx.Get(a); !ok { // refresh a
		t.Fatal("expected hit on a")
	}
	idx.Put(c, []int{3}) // evicts b, the LRU entry
	if _, ok := idx.Get(b); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := idx.Get(a); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := idx.Get(c); !ok {
		t.Fatal("c should be cached")
	}
}

func TestIndexedCrossoverPaths(t *testing.T) {
	idx, err := NewIndexed(4, IndexedOptions{Capacity: 100, Tolerance: 0.1, Crossover: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(31)
	for i := 0; i < 5; i++ {
		idx.Put(vec.RandomGaussian(rng, 4), []int{i})
	}
	idx.Get(vec.RandomGaussian(rng, 4))
	if s := *idx.Stats().Index; s.BruteScans != 1 || s.Searches != 0 {
		t.Fatalf("below crossover: bruteScans=%d searches=%d", s.BruteScans, s.Searches)
	}
	for i := 5; i < 20; i++ {
		idx.Put(vec.RandomGaussian(rng, 4), []int{i})
	}
	idx.Get(vec.RandomGaussian(rng, 4))
	if s := *idx.Stats().Index; s.BruteScans != 1 || s.Searches != 1 {
		t.Fatalf("above crossover: bruteScans=%d searches=%d", s.BruteScans, s.Searches)
	}
	if st := idx.Stats(); st.DistComps == 0 {
		t.Fatal("DistComps not charged")
	}
}

func TestIndexedSetEfSearch(t *testing.T) {
	idx, err := NewIndexed(4, IndexedOptions{Capacity: 100, Tolerance: 0.1, EfSearch: 32, Crossover: 1, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.EfSearch(); got != 32 {
		t.Fatalf("EfSearch() = %d, want 32", got)
	}
	idx.SetEfSearch(0) // ignored
	idx.SetEfSearch(-4)
	if got := idx.EfSearch(); got != 32 {
		t.Fatalf("EfSearch() after bad sets = %d, want 32", got)
	}
	idx.SetEfSearch(128)
	if got := idx.EfSearch(); got != 128 {
		t.Fatalf("EfSearch() = %d, want 128", got)
	}
	// Lookups keep working with the retuned beam.
	rng := vec.NewRand(29)
	k := vec.RandomGaussian(rng, 4)
	idx.Put(k, []int{7})
	if docs, ok := idx.Get(k); !ok || docs[0] != 7 {
		t.Fatalf("get after SetEfSearch = %v %v", docs, ok)
	}
}

func TestIndexedEntriesAndClear(t *testing.T) {
	idx, err := NewIndexed(2, IndexedOptions{Capacity: 5, Tolerance: 0.1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		idx.PutWithTolerance(vec.Vector{float32(i), 0}, []int{i}, float32(i)*0.1)
	}
	entries := idx.Entries()
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(entries))
	}
	for i, e := range entries { // eviction (insert) order
		if e.Docs[0] != i || e.Key[0] != float32(i) || e.Tol != float32(i)*0.1 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	before := idx.Stats()
	idx.Clear()
	if idx.Len() != 0 {
		t.Fatalf("len=%d after clear", idx.Len())
	}
	if after := idx.Stats(); after.Puts != before.Puts {
		t.Fatal("Clear must preserve counters")
	}
	// The cache must keep working after the rebuild.
	idx.Put(vec.Vector{1, 1}, []int{9})
	if docs, ok := idx.Get(vec.Vector{1, 1}); !ok || docs[0] != 9 {
		t.Fatalf("post-clear get = %v %v", docs, ok)
	}
}

func TestIndexedIgnoresBadInput(t *testing.T) {
	idx, err := NewIndexed(3, IndexedOptions{Capacity: 5, Tolerance: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	idx.Put(nil, []int{1})
	idx.Put(vec.Vector{1, 2}, []int{1})                                 // wrong dim
	idx.PutWithTolerance(vec.Vector{1, 2, 3}, nil, -1)                  // negative tol
	idx.PutWithTolerance(vec.Vector{1, 2, 3}, nil, float32(math.NaN())) // NaN tol
	for _, x := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		idx.Put(vec.Vector{1, x, 3}, []int{1}) // no query is within τ of it
	}
	if idx.Len() != 0 || idx.Stats().Puts != 0 {
		t.Fatalf("bad puts were accepted: len=%d, puts=%d", idx.Len(), idx.Stats().Puts)
	}
	if _, ok := idx.Get(nil); ok {
		t.Fatal("nil query hit")
	}
	if _, ok := idx.Get(vec.Vector{1}); ok {
		t.Fatal("wrong-dim query hit")
	}
	if idx.Capacity() != 5 || idx.Tolerance() != 0.1 || idx.Policy() != FIFO {
		t.Fatal("accessor mismatch")
	}
}

// TestIndexedMaintain covers the manual drain, the scheduling knobs'
// validation, and the graph_repair stage observation.
func TestIndexedMaintain(t *testing.T) {
	for _, bad := range []MaintenanceOptions{
		{Every: -1}, {Budget: -1},
	} {
		bad := bad
		if _, err := NewIndexed(4, IndexedOptions{Capacity: 10, Tolerance: 0.1, Maintenance: &bad}); err == nil {
			t.Fatalf("options %+v should fail validation", bad)
		}
	}

	tel := telemetry.New(telemetry.Options{})
	idx, err := NewIndexed(4, IndexedOptions{
		Capacity:    100,
		Tolerance:   0.3,
		Seed:        17,
		Maintenance: &MaintenanceOptions{Every: 1 << 30}, // schedule never fires; Maintain drains
		Telemetry:   tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(18)
	for i := 0; i < 600; i++ {
		idx.Put(vec.Scale(vec.RandomGaussian(rng, 4), 2), []int{i})
	}
	s := *idx.Stats().Index
	if s.ReusedSlots == 0 {
		t.Fatal("churn did not reuse slots")
	}
	if s.RepairPasses != 0 {
		t.Fatalf("scheduled pass fired despite Every=1<<30: %+v", s)
	}
	st := idx.Maintain(0) // full drain
	if idx.Stats().Index.PendingRepair != 0 {
		t.Fatalf("Maintain(0) left %d pending", idx.Stats().Index.PendingRepair)
	}
	after := *idx.Stats().Index
	if after.RepairPasses == 0 || int64(st.Relinked) != after.RepairedNodes {
		t.Fatalf("drain counters off: stats=%+v pass=%+v", after, st)
	}
	if after.RepairNanos == 0 {
		t.Fatal("RepairNanos not accumulated")
	}
	snap := tel.StageSnapshot()
	if snap[telemetry.StageGraphRepair].N == 0 {
		t.Fatal("graph_repair stage not observed")
	}
	// Draining an already-clean queue is a no-op.
	if st := idx.Maintain(0); st.Examined != 0 || st.Relinked != 0 {
		t.Fatalf("clean-queue Maintain did work: %+v", st)
	}
}

// indexedPin is what TestIndexedGraphEvolutionPinned records per cell:
// the counters (Index block apart), the Index block without its wall
// time, and an FNV-64a hash of every Get result and the final Entries.
type indexedPin struct {
	stats Stats
	index IndexStats
	hash  uint64
}

// TestIndexedGraphEvolutionPinned replays one fixed-seed churn stream
// (puts with the cache-wide and per-line tolerances, lookups near
// resident and evicted keys, manual repair passes and one Clear) over
// FIFO and LRU at three crossovers: the graph on every lookup, the
// default, and the scan on every lookup. Scheduled maintenance is on.
// The graph's evolution — which node each Put reuses, which in-edges
// eviction severs, what each repair pass re-links — is a function of
// the keys it is handed and the order of deletions, so any change to
// what the cache hands the graph moves these constants.
func TestIndexedGraphEvolutionPinned(t *testing.T) {
	const (
		dim      = 8
		capacity = 200
		ops      = 3000
		tau      = 0.5
	)
	// Recorded from the IndexedCache that kept its own list, key copies
	// and scan; rebuilding it over a FlatCache moved none of them.
	want := map[string]indexedPin{
		"fifo/crossover=1": {
			Stats{Hits: 1217, Misses: 551, Puts: 1101, Evictions: 701, DistComps: 373188},
			IndexStats{Nodes: 200, Slots: 200, GraphHops: 291739, Reranks: 81449, Searches: 1765, ReusedSlots: 701, SeveredInEdges: 18230, ReroutedInEdges: 17616, DroppedInRefs: 1555, RepairPasses: 145, RepairedNodes: 371, PendingRepair: 14},
			0x7166c8a0bdc0d560,
		},
		"fifo/crossover=0": {
			Stats{Hits: 1217, Misses: 551, Puts: 1101, Evictions: 701, DistComps: 355327},
			IndexStats{Nodes: 200, Slots: 200, GraphHops: 264095, Reranks: 65616, BruteScans: 398, Searches: 1367, ReusedSlots: 701, SeveredInEdges: 18230, ReroutedInEdges: 17616, DroppedInRefs: 1555, RepairPasses: 145, RepairedNodes: 371, PendingRepair: 14},
			0x7166c8a0bdc0d560,
		},
		"fifo/crossover=1048576": {
			Stats{Hits: 1218, Misses: 550, Puts: 1101, Evictions: 701, DistComps: 289865},
			IndexStats{Nodes: 200, Slots: 200, BruteScans: 1765, ReusedSlots: 701, SeveredInEdges: 18230, ReroutedInEdges: 17616, DroppedInRefs: 1555, RepairPasses: 145, RepairedNodes: 371, PendingRepair: 14},
			0x6f8a76e2711bc56,
		},
		"lru/crossover=1": {
			Stats{Hits: 1136, Misses: 632, Puts: 1101, Evictions: 701, DistComps: 372825},
			IndexStats{Nodes: 200, Slots: 200, GraphHops: 291376, Reranks: 81449, Searches: 1765, ReusedSlots: 701, SeveredInEdges: 17861, ReroutedInEdges: 17276, DroppedInRefs: 1361, RepairPasses: 145, RepairedNodes: 294, PendingRepair: 6},
			0x6cf98429a7acbaf,
		},
		"lru/crossover=0": {
			Stats{Hits: 1136, Misses: 632, Puts: 1101, Evictions: 701, DistComps: 354964},
			IndexStats{Nodes: 200, Slots: 200, GraphHops: 263732, Reranks: 65616, BruteScans: 398, Searches: 1367, ReusedSlots: 701, SeveredInEdges: 17861, ReroutedInEdges: 17276, DroppedInRefs: 1361, RepairPasses: 145, RepairedNodes: 294, PendingRepair: 6},
			0x6cf98429a7acbaf,
		},
		"lru/crossover=1048576": {
			Stats{Hits: 1136, Misses: 632, Puts: 1101, Evictions: 701, DistComps: 289865},
			IndexStats{Nodes: 200, Slots: 200, BruteScans: 1765, ReusedSlots: 701, SeveredInEdges: 17861, ReroutedInEdges: 17276, DroppedInRefs: 1361, RepairPasses: 145, RepairedNodes: 294, PendingRepair: 6},
			0x6cf98429a7acbaf,
		},
	}
	for _, policy := range []Policy{FIFO, LRU} {
		for _, crossover := range []int{1, 0, 1 << 20} {
			name := fmt.Sprintf("%v/crossover=%d", policy, crossover)
			t.Run(name, func(t *testing.T) {
				c, err := NewIndexed(dim, IndexedOptions{
					Capacity:    capacity,
					Tolerance:   tau,
					Policy:      policy,
					Crossover:   crossover,
					Seed:        3,
					Maintenance: &MaintenanceOptions{Every: 16, Budget: 8},
				})
				if err != nil {
					t.Fatal(err)
				}
				rng := vec.NewRand(41)
				h := fnv.New64a()
				var keys []vec.Vector // every key put, resident or not
				for op := 0; op < ops; op++ {
					switch r := rng.IntN(20); {
					case op == ops/2:
						c.Clear()
					case r < 7 || len(keys) == 0:
						k := vec.Scale(vec.RandomGaussian(rng, dim), 2)
						keys = append(keys, k)
						if r == 0 {
							c.PutWithTolerance(k, []int{op}, tau*float32(rng.Float64()))
						} else {
							c.Put(k, []int{op})
						}
					case r < 19:
						var q vec.Vector
						if r < 17 { // near a recent key, usually still resident
							q = perturb(rng, keys[max(0, len(keys)-capacity-20+rng.IntN(capacity+20))], tau*float32(rng.Float64()))
						} else {
							q = vec.Scale(vec.RandomGaussian(rng, dim), 2)
						}
						docs, ok := c.Get(q)
						fmt.Fprintln(h, op, docs, ok)
					default:
						c.Maintain(4)
					}
				}
				for _, e := range c.Entries() {
					fmt.Fprintln(h, e.Key, e.Docs, e.Tol)
				}
				s := c.Stats()
				got := indexedPin{stats: s, index: *s.Index, hash: h.Sum64()}
				got.stats.Index, got.index.RepairNanos = nil, 0
				if got.index.RepairPasses == 0 || got.stats.Evictions == 0 || got.stats.Hits == 0 {
					t.Fatalf("stream exercised too little: %+v %+v", got.stats, got.index)
				}
				if w, ok := want[name]; !ok || !reflect.DeepEqual(got, w) {
					t.Errorf("got  %#v\nwant %#v", got, w)
				}
			})
		}
	}
}

// TestIndexedConcurrentAccess runs Get, Put, Stats, Entries, Maintain
// and Clear from four goroutines on both lookup paths; under -race it
// checks that every one of them holds the one lock. Afterwards every Get
// and Put must be counted once, and the graph must hold one node per
// line.
func TestIndexedConcurrentAccess(t *testing.T) {
	const (
		dim        = 8
		workers    = 4
		perWorker  = 400
		capacity   = 64
		tolerance  = 0.5
		everyClear = 97
	)
	for _, crossover := range []int{1, 1 << 20} {
		t.Run(fmt.Sprintf("crossover=%d", crossover), func(t *testing.T) {
			c, err := NewIndexed(dim, IndexedOptions{
				Capacity:    capacity,
				Tolerance:   tolerance,
				Policy:      LRU,
				Crossover:   crossover,
				Seed:        5,
				Maintenance: &MaintenanceOptions{Every: 8, Budget: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			var gets, puts [workers]int64
			var wg sync.WaitGroup
			for w := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := vec.NewRand(uint64(w) + 1)
					var keys []vec.Vector
					for i := range perWorker {
						switch r := rng.IntN(10); {
						case r < 3 || len(keys) == 0:
							k := vec.Scale(vec.RandomGaussian(rng, dim), 2)
							keys = append(keys, k)
							c.Put(k, []int{w, i})
							puts[w]++
						case r < 7:
							if docs, ok := c.Get(perturb(rng, keys[rng.IntN(len(keys))], tolerance/2)); ok && len(docs) != 2 {
								t.Errorf("Get served %v", docs)
							}
							gets[w]++
						case r == 7:
							if s := c.Stats(); s.Index == nil || s.Index.Nodes > capacity {
								t.Errorf("Stats %+v", s)
							}
						case r == 8:
							if n := len(c.Entries()); n > capacity {
								t.Errorf("%d entries in a cache of %d", n, capacity)
							}
						case i%everyClear == 0:
							c.Clear()
						default:
							c.Maintain(2)
						}
					}
				}()
			}
			wg.Wait()
			var wantGets, wantPuts int64
			for w := range workers {
				wantGets += gets[w]
				wantPuts += puts[w]
			}
			s := c.Stats()
			if s.Hits+s.Misses != wantGets || s.Puts != wantPuts || s.Hits == 0 {
				t.Fatalf("Stats %+v after %d gets and %d puts", s, wantGets, wantPuts)
			}
			if s.Index.Nodes != c.Len() || s.Index.Slots-s.Index.Tombstones != c.Len() {
				t.Fatalf("graph %+v over %d lines", *s.Index, c.Len())
			}
		})
	}
}
