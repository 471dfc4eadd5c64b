package core

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"proximity/internal/hnsw"
	"proximity/internal/telemetry"
	"proximity/internal/vec"
)

// IndexedOptions configures Proximity-INDEXED: the cache options shared
// with the flat variant plus the graph-index knobs.
type IndexedOptions struct {
	// Capacity, Tolerance, Policy mirror Options.
	Capacity  int
	Tolerance float32
	Policy    Policy

	// Crossover is the resident-entry count below which Get falls back
	// to an exact linear scan: graph traversal has fixed overhead
	// (greedy descent, beam bookkeeping) that a small scan beats.
	// Defaults to 128; see the ROADMAP guidance for tuning.
	Crossover int
	// EfSearch is the graph beam width per lookup — the candidate pool
	// that gets exactly re-ranked. Defaults to 48. Raise it to close
	// any hit-rate gap to the flat scan, lower it for latency.
	EfSearch int
	// M and EfConstruction tune graph construction (hnsw.Config);
	// zero values take the hnsw defaults.
	M              int
	EfConstruction int
	// Seed drives the graph's layer assignment.
	Seed uint64

	// Maintenance, when non-nil, schedules incremental graph repair on
	// the Put path: churn (eviction + reinsert) leaves mildly degraded
	// neighborhoods queued inside the graph, and a maintenance pass
	// re-links a bounded batch of them whenever churn pressure crosses
	// the configured trigger. Nil disables background repair; in-edge
	// severing at slot reuse (the main recall fix) stays on regardless.
	Maintenance *MaintenanceOptions
	// Telemetry, when set, observes maintenance passes under the
	// graph_repair stage.
	Telemetry *telemetry.Telemetry
	// DisableInEdgeRepair restores the pre-repair reuse behavior (stale
	// in-edges survive slot recycling). Benchmark baseline only — it
	// re-introduces the churn recall decay this option exists to fix.
	DisableInEdgeRepair bool
	// OnEvict observes capacity evictions (see Options.OnEvict): the
	// victim's key/docs slices are handed over instead of discarded.
	// Runs under the cache lock; must not call back into the cache.
	OnEvict func(Entry)
}

// MaintenanceOptions tunes the incremental repair schedule. Zero values
// take the defaults noted per field.
type MaintenanceOptions struct {
	// Every triggers a repair pass after this many slot reuses since the
	// last pass. Default 64.
	Every int
	// Budget caps the nodes re-linked per pass — the Put-path latency
	// bound. Default 16.
	Budget int
}

func (m *MaintenanceOptions) fillDefaults() {
	if m.Every == 0 {
		m.Every = 64
	}
	if m.Budget == 0 {
		m.Budget = 16
	}
}

func (o *IndexedOptions) fillDefaults() {
	if o.Policy == 0 {
		o.Policy = FIFO
	}
	if o.Crossover == 0 {
		o.Crossover = 128
	}
	if o.EfSearch == 0 {
		o.EfSearch = 48
	}
	if o.Maintenance != nil {
		o.Maintenance.fillDefaults()
	}
}

func (o IndexedOptions) validate() error {
	if err := (Options{
		Capacity:  o.Capacity,
		Tolerance: o.Tolerance,
		Policy:    o.Policy,
	}).validate(); err != nil {
		return err
	}
	if o.Crossover < 0 {
		return fmt.Errorf("core: crossover must be non-negative, got %d", o.Crossover)
	}
	if o.EfSearch < 1 {
		return fmt.Errorf("core: efSearch must be positive, got %d", o.EfSearch)
	}
	if m := o.Maintenance; m != nil {
		if m.Every < 1 {
			return fmt.Errorf("core: maintenance Every must be positive, got %d", m.Every)
		}
		if m.Budget < 1 {
			return fmt.Errorf("core: maintenance Budget must be positive, got %d", m.Budget)
		}
	}
	return nil
}

// IndexedCache is Proximity-INDEXED: the Algorithm 1 cache with its
// similarity lookup served by an HNSW graph over the cached keys instead
// of a linear scan. The graph stores int8 scalar-quantized copies of the
// keys and ranks traversal with asymmetric quantized kernels (vec.
// Quantized); the EfSearch candidates it returns are then re-ranked with
// exact float32 L2 distances, and ONLY exact distances are compared against
// per-entry tolerances — so a hit here admits exactly the entries a flat
// scan would, the approximation affecting recall (which candidates are
// seen), never admission correctness.
//
// Eviction (FIFO or LRU) tombstones the victim's graph node; tombstoned
// slots are reused by later inserts, so steady-state churn keeps the
// graph at capacity size without rebuilds. Below Crossover resident
// entries, lookups use an exact linear scan — the graph's fixed traversal
// overhead only pays off once the scan is longer than the beam.
type IndexedCache struct {
	dim  int
	opts IndexedOptions

	mu      sync.Mutex
	graph   *hnsw.Index
	entries []*indexedEntry // by graph slot id; nil = tombstoned slot
	live    int
	order   *list.List // eviction order; front = next to evict
	stats   Stats

	reranks     int64 // exact re-rank distance computations (graph path)
	bruteScans  int64 // lookups served by the sub-crossover linear scan
	repairNanos int64 // cumulative time spent in scheduled maintenance passes
	// cleared carries the counters owned by the graphs Clear has dropped
	// (hops, searches, slot-reuse and repair work), so the Index block
	// never runs backwards; only those fields of it are read.
	cleared IndexStats
	candBuf []vec.Scored
}

type indexedEntry struct {
	id   int // graph slot id
	key  vec.Vector
	docs []int
	tol  float32
	elem *list.Element // position in eviction order; Value is *indexedEntry
}

var (
	_ Cache       = (*IndexedCache)(nil)
	_ EntrySource = (*IndexedCache)(nil)
)

// NewIndexed creates a Proximity-INDEXED cache for dim-dimensional query
// embeddings.
func NewIndexed(dim int, opts IndexedOptions) (*IndexedCache, error) {
	opts.fillDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("core: dimension must be positive, got %d", dim)
	}
	c := &IndexedCache{
		dim:   dim,
		opts:  opts,
		order: list.New(),
	}
	var err error
	if c.graph, err = c.newGraph(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *IndexedCache) newGraph() (*hnsw.Index, error) {
	return hnsw.New(c.dim, vec.L2Distance, hnsw.Config{
		M:                   c.opts.M,
		EfConstruction:      c.opts.EfConstruction,
		EfSearch:            c.opts.EfSearch,
		Seed:                c.opts.Seed,
		Quantized:           true,
		DisableInEdgeRepair: c.opts.DisableInEdgeRepair,
	})
}

// Get returns the documents of the closest cached entry whose tolerance
// admits q. Large caches route through the graph; below the crossover an
// exact linear scan is cheaper.
//
//proximity:hotpath
func (c *IndexedCache) Get(q vec.Vector) ([]int, bool) {
	if q == nil || len(q) != c.dim {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	var best *indexedEntry
	switch {
	case c.live == 0:
		// nothing cached
	case c.live < c.opts.Crossover:
		c.bruteScans++
		best = c.scanExact(q)
	default:
		best = c.searchGraph(q)
	}
	if best == nil {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	if c.opts.Policy == LRU {
		c.order.MoveToBack(best.elem)
	}
	//proximity:allow hotpathalloc the budgeted caller-owned docs copy (Get's one allocation)
	out := make([]int, len(best.docs))
	copy(out, best.docs)
	return out, true
}

// scanExact is the sub-crossover fallback: an exact scan over live slots
// in ascending slot order (ties keep the lowest slot, deterministic).
func (c *IndexedCache) scanExact(q vec.Vector) *indexedEntry {
	var best *indexedEntry
	var bestDist float32
	for _, e := range c.entries {
		if e == nil {
			continue
		}
		d, ok := c.admissibleDist(q, e, best, bestDist)
		if ok && (best == nil || d < bestDist) {
			best, bestDist = e, d
		}
	}
	c.stats.DistComps += int64(c.live)
	return best
}

// admissibleDist is the exact distance from q to e's key, with ok=false
// when e's tolerance does not admit q. It also returns false, without
// finishing the sum, once e is provably farther than the best candidate
// so far; a candidate exactly as far still gets its distance, so the
// callers' tie-breaks decide as they always did.
func (c *IndexedCache) admissibleDist(q vec.Vector, e, best *indexedEntry, bestDist float32) (float32, bool) {
	maxDist := e.tol
	if best != nil && bestDist < maxDist {
		maxDist = bestDist
	}
	d, ok := vec.L2Bounded(q, e.key, maxDist)
	return d, ok && d <= e.tol
}

// searchGraph runs the quantized beam search and exactly re-ranks every
// returned candidate. Admission (d ≤ tol) is decided on exact distances
// only; quantized distances merely chose which candidates to look at.
func (c *IndexedCache) searchGraph(q vec.Vector) *indexedEntry {
	hopsBefore := c.graph.Hops()
	ef := c.opts.EfSearch
	found, err := c.graph.SearchInto(c.candBuf[:0], q, ef, ef)
	if err != nil {
		// Len()>0 and dim was checked; unreachable, but fail safe
		// toward a miss rather than a panic.
		return nil
	}
	c.candBuf = found[:0]
	var best *indexedEntry
	var bestDist float32
	for _, cand := range found {
		e := c.entries[cand.ID]
		if e == nil {
			continue // tombstones are excluded by the graph; belt and braces
		}
		d, ok := c.admissibleDist(q, e, best, bestDist)
		if !ok {
			continue
		}
		if best == nil || d < bestDist || (d == bestDist && e.id < best.id) {
			best, bestDist = e, d
		}
	}
	c.reranks += int64(len(found))
	c.stats.DistComps += c.graph.Hops() - hopsBefore + int64(len(found))
	return best
}

// Put inserts under the cache-wide tolerance, evicting if necessary.
func (c *IndexedCache) Put(q vec.Vector, docs []int) {
	c.PutWithTolerance(q, docs, c.opts.Tolerance)
}

// PutWithTolerance inserts an entry with its own match threshold. The key
// is cloned once; the graph and the cache line share the clone. A nil or
// wrong-length key, and a negative or NaN tol, is ignored.
func (c *IndexedCache) PutWithTolerance(q vec.Vector, docs []int, tol float32) {
	if q == nil || len(q) != c.dim || !(tol >= 0) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.live >= c.opts.Capacity {
		c.evictLocked()
	}
	key := vec.Clone(q)
	id, err := c.graph.Insert(key)
	if err != nil {
		return // dim checked above; unreachable
	}
	for len(c.entries) <= id {
		c.entries = append(c.entries, nil)
	}
	e := &indexedEntry{
		id:   id,
		key:  key,
		docs: append([]int(nil), docs...),
		tol:  tol,
	}
	e.elem = c.order.PushBack(e)
	c.entries[id] = e
	c.live++
	c.stats.Puts++
	c.maybeMaintainLocked()
}

// maybeMaintainLocked runs one budgeted repair pass once Every slots have
// been reused since the last one. Called with c.mu held, so the pass is
// serialized against every other graph mutation for free; the Budget cap
// bounds how long this Put holds the lock.
func (c *IndexedCache) maybeMaintainLocked() {
	m := c.opts.Maintenance
	if m == nil || c.graph.ReusedSinceRepair() < m.Every {
		return
	}
	start := time.Now()
	c.graph.Repair(m.Budget)
	d := time.Since(start)
	c.repairNanos += int64(d)
	c.opts.Telemetry.ObserveStage(telemetry.StageGraphRepair, d)
}

// Maintain runs repair passes until the graph's pending-repair queue is
// drained or budget nodes have been examined (budget <= 0 drains fully).
// Useful before a latency-sensitive phase or in tests; the scheduled
// path (IndexedOptions.Maintenance) normally makes this unnecessary.
func (c *IndexedCache) Maintain(budget int) hnsw.RepairStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if budget <= 0 {
		budget = c.graph.PendingRepair()
	}
	if budget == 0 {
		return hnsw.RepairStats{}
	}
	start := time.Now()
	st := c.graph.Repair(budget)
	d := time.Since(start)
	c.repairNanos += int64(d)
	c.opts.Telemetry.ObserveStage(telemetry.StageGraphRepair, d)
	return st
}

func (c *IndexedCache) evictLocked() {
	front := c.order.Front()
	if front == nil {
		return
	}
	victim, ok := front.Value.(*indexedEntry)
	if !ok {
		panic(fmt.Sprintf("core: unexpected eviction list element %T", front.Value))
	}
	c.order.Remove(front)
	if err := c.graph.Delete(victim.id); err != nil {
		panic(fmt.Sprintf("core: graph/cache desync on evict: %v", err))
	}
	c.entries[victim.id] = nil
	c.live--
	c.stats.Evictions++
	if c.opts.OnEvict != nil {
		// The graph holds a quantized copy of the key, not the victim's
		// float32 slice, so handing the slices over transfers ownership.
		c.opts.OnEvict(Entry{Key: victim.key, Docs: victim.docs, Tol: victim.tol})
	}
}

// Len returns the number of cached entries.
func (c *IndexedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// Capacity returns the configured capacity.
func (c *IndexedCache) Capacity() int { return c.opts.Capacity }

// Tolerance returns the cache-wide similarity threshold τ.
func (c *IndexedCache) Tolerance() float32 { return c.opts.Tolerance }

// Policy returns the eviction policy.
func (c *IndexedCache) Policy() Policy { return c.opts.Policy }

// SetEfSearch retunes the lookup beam width at runtime — the
// recall-vs-latency knob. Wider beams recover graph recall on hard
// (high-dimensional, unclustered) key distributions without a rebuild.
// Values below 1 are ignored.
func (c *IndexedCache) SetEfSearch(ef int) {
	if ef < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opts.EfSearch = ef
}

// EfSearch returns the current lookup beam width.
func (c *IndexedCache) EfSearch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opts.EfSearch
}

// Stats returns a snapshot of the counters, with the graph's in the
// Index block. DistComps counts graph hops plus exact re-ranks plus
// fallback scans — the all-in distance work of lookups, comparable to
// the flat scan's counter.
func (c *IndexedCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	idx := c.indexStatsLocked()
	s.Index = &idx
	return s
}

// IndexStats describes the graph behind an indexed cache, as the Index
// block of its Stats. The server renders it as the index block of
// /v1/stats: the tags are wire names.
type IndexStats struct {
	// Nodes is the live graph node count (== cache Len).
	Nodes int `json:"nodes"`
	// Slots is live + tombstoned graph slots.
	Slots int `json:"slots"`
	// Tombstones is the deleted-awaiting-reuse slot count.
	Tombstones int `json:"tombstones"`
	// GraphHops is the cumulative traversal distance evaluations.
	GraphHops int64 `json:"graphHops"`
	// Reranks is the cumulative exact re-rank distance evaluations.
	Reranks int64 `json:"reranks"`
	// BruteScans is the number of lookups served by the sub-crossover
	// exact scan instead of the graph.
	BruteScans int64 `json:"bruteScans"`
	// Searches is the number of graph traversals performed.
	Searches int64 `json:"searches"`

	// ReusedSlots counts evicted slots recycled for new entries.
	ReusedSlots int64 `json:"reusedSlots"`
	// SeveredInEdges counts stale incoming edges cut at slot reuse.
	SeveredInEdges int64 `json:"severedInEdges"`
	// ReroutedInEdges counts severed edges replaced in place with an
	// edge to the evictee's nearest surviving neighbor.
	ReroutedInEdges int64 `json:"reroutedInEdges"`
	// DroppedInRefs counts reverse refs lost to the per-slot bound;
	// those edges survive the slot's next reuse untracked.
	DroppedInRefs int64 `json:"droppedInRefs"`
	// RepairPasses / RepairedNodes count incremental maintenance passes
	// and the neighborhoods they re-linked.
	RepairPasses  int64 `json:"repairPasses"`
	RepairedNodes int64 `json:"repairedNodes"`
	// PendingRepair is the current depth of the repair queue.
	PendingRepair int `json:"pendingRepair"`
	// RepairNanos is the cumulative wall time spent in maintenance.
	RepairNanos int64 `json:"repairNanos"`
}

// Merge accumulates other into s (used by sharded aggregation).
func (s *IndexStats) Merge(other IndexStats) {
	s.Nodes += other.Nodes
	s.Slots += other.Slots
	s.Tombstones += other.Tombstones
	s.GraphHops += other.GraphHops
	s.Reranks += other.Reranks
	s.BruteScans += other.BruteScans
	s.Searches += other.Searches
	s.ReusedSlots += other.ReusedSlots
	s.SeveredInEdges += other.SeveredInEdges
	s.ReroutedInEdges += other.ReroutedInEdges
	s.DroppedInRefs += other.DroppedInRefs
	s.RepairPasses += other.RepairPasses
	s.RepairedNodes += other.RepairedNodes
	s.PendingRepair += other.PendingRepair
	s.RepairNanos += other.RepairNanos
}

func (c *IndexedCache) indexStatsLocked() IndexStats {
	m := c.graph.Maintenance()
	return IndexStats{
		Nodes:           c.live,
		Slots:           c.graph.Slots(),
		Tombstones:      c.graph.Tombstones(),
		GraphHops:       c.cleared.GraphHops + c.graph.Hops(),
		Reranks:         c.reranks,
		BruteScans:      c.bruteScans,
		Searches:        c.cleared.Searches + c.graph.Searches(),
		ReusedSlots:     c.cleared.ReusedSlots + m.ReusedSlots,
		SeveredInEdges:  c.cleared.SeveredInEdges + m.SeveredInEdges,
		ReroutedInEdges: c.cleared.ReroutedInEdges + m.ReroutedInEdges,
		DroppedInRefs:   c.cleared.DroppedInRefs + m.DroppedInRefs,
		RepairPasses:    c.cleared.RepairPasses + m.RepairPasses,
		RepairedNodes:   c.cleared.RepairedNodes + m.RepairedNodes,
		PendingRepair:   m.PendingRepair,
		RepairNanos:     c.repairNanos,
	}
}

// Clear drops all entries and rebuilds an empty graph (same seed and
// parameters), preserving counters: the old graph's are folded into
// cleared before it goes.
func (c *IndexedCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	graph, err := c.newGraph()
	if err != nil {
		panic(fmt.Sprintf("core: rebuilding graph with validated config: %v", err))
	}
	c.cleared = c.indexStatsLocked()
	c.graph = graph
	c.entries = nil
	c.live = 0
	c.order.Init()
}

// Entries returns copies of the cached lines in eviction order (front
// first). Implements EntrySource so the shard migrator can move lines
// between indexed sub-caches.
func (c *IndexedCache) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.live)
	for el := c.order.Front(); el != nil; el = el.Next() {
		e, ok := el.Value.(*indexedEntry)
		if !ok {
			panic(fmt.Sprintf("core: unexpected eviction list element %T", el.Value))
		}
		out = append(out, Entry{
			Key:  vec.Clone(e.key),
			Docs: append([]int(nil), e.docs...),
			Tol:  e.tol,
		})
	}
	return out
}
