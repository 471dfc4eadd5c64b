package core

import (
	"fmt"
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

// validate checks the graph's options; NewFlat checks the rest.
func (o IndexedOptions) validate() error {
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

// IndexedCache is Proximity-INDEXED: a FlatCache whose lookup, once the
// cache holds Crossover lines, is served by an HNSW graph over its keys
// instead of the linear scan. The FlatCache holds the lines, their
// eviction order, the counters and the lock; the graph is an index over
// its slots, with one node per line that shares the line's key. Below
// Crossover lines a Get is FLAT's own head scan: the graph's fixed
// traversal overhead only pays off once the scan is longer than the beam.
//
// Above it, the graph ranks traversal with int8 scalar-quantized copies
// of the keys and asymmetric quantized kernels (vec.Quantized); the
// EfSearch candidates it returns are then re-ranked with exact float32
// L2 distances, and ONLY exact distances are compared against per-entry
// tolerances — so a hit here admits exactly the entries a flat scan
// would, the approximation affecting recall (which candidates are seen),
// never admission correctness.
//
// Eviction (FIFO or LRU) tombstones the victim's graph node; tombstoned
// nodes are reused by later inserts, so steady-state churn keeps the
// graph at capacity size without rebuilds.
type IndexedCache struct {
	flat *FlatCache // the lines, their eviction order, the counters, and mu, the one lock
	opts IndexedOptions

	graph  *hnsw.Index
	nodeOf []int32 // slot i's graph node
	slotOf []int32 // graph node n's slot; noSlot for a tombstone

	reranks     int64 // exact re-rank distance computations (graph path)
	bruteScans  int64 // lookups served by the sub-crossover linear scan
	repairNanos int64 // cumulative time spent in scheduled maintenance passes
	// cleared carries the counters owned by the graphs Clear has dropped
	// (hops, searches, slot-reuse and repair work), so the Index block
	// never runs backwards; only those fields of it are read.
	cleared IndexStats
	candBuf []vec.Scored
}

var _ Cache = (*IndexedCache)(nil)

// NewIndexed creates a Proximity-INDEXED cache for dim-dimensional query
// embeddings.
func NewIndexed(dim int, opts IndexedOptions) (*IndexedCache, error) {
	flat, err := NewFlat(dim, Options{Capacity: opts.Capacity, Tolerance: opts.Tolerance, Policy: opts.Policy})
	if err != nil {
		return nil, err
	}
	opts.fillDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	c := &IndexedCache{flat: flat, opts: opts}
	if c.graph, err = c.newGraph(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *IndexedCache) newGraph() (*hnsw.Index, error) {
	return hnsw.New(c.flat.dim, vec.L2Distance, hnsw.Config{
		M:                   c.opts.M,
		EfConstruction:      c.opts.EfConstruction,
		EfSearch:            c.opts.EfSearch,
		Seed:                c.opts.Seed,
		Quantized:           true,
		DisableInEdgeRepair: c.opts.DisableInEdgeRepair,
	})
}

// Get returns the documents of the closest cached entry whose tolerance
// admits q. Large caches route through the graph; below the crossover
// FLAT's scan is cheaper.
//
//proximity:hotpath
func (c *IndexedCache) Get(q vec.Vector) ([]int, bool) {
	f := c.flat
	if len(q) != f.dim {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i := -1
	switch n := len(f.tols); {
	case n == 0:
		// nothing cached
	case n < c.opts.Crossover:
		c.bruteScans++
		i, _ = f.scanAdmissible(q)
	default:
		i = c.searchGraph(q)
	}
	return f.serveLocked(i)
}

// searchGraph runs the quantized beam search and exactly re-ranks every
// returned candidate, returning the winner's slot (-1 if none). Admission
// (d ≤ tol) is decided on exact distances only; quantized distances
// merely chose which candidates to look at. A candidate is abandoned once
// it is provably farther than the best so far; on an exact tie the lower
// graph node wins.
func (c *IndexedCache) searchGraph(q vec.Vector) int {
	f := c.flat
	hopsBefore := c.graph.Hops()
	ef := c.opts.EfSearch
	found, err := c.graph.SearchInto(c.candBuf[:0], q, ef, ef)
	if err != nil {
		// Len()>0 and dim was checked; unreachable, but fail safe
		// toward a miss rather than a panic.
		return -1
	}
	c.candBuf = found[:0]
	best, bestNode := -1, 0
	var bestDist float32
	for _, cand := range found {
		i := c.slotOf[cand.ID]
		if i == noSlot {
			continue // tombstones are excluded by the graph; belt and braces
		}
		tol := f.tols[i]
		maxDist := tol
		if best >= 0 && bestDist < maxDist {
			maxDist = bestDist
		}
		d, ok := vec.L2Bounded(q, f.slots[i].key, maxDist)
		if ok && d <= tol && (best < 0 || d < bestDist || d == bestDist && cand.ID < bestNode) {
			best, bestNode, bestDist = int(i), cand.ID, d
		}
	}
	c.reranks += int64(len(found))
	f.distComps.Add(c.graph.Hops() - hopsBefore + int64(len(found)))
	return best
}

// Put inserts under the cache-wide tolerance, evicting if necessary.
func (c *IndexedCache) Put(q vec.Vector, docs []int) {
	c.PutWithTolerance(q, docs, c.flat.opts.Tolerance)
}

// PutWithTolerance inserts an entry with its own match threshold. What
// FlatCache ignores, this ignores too. The key is cloned once; the graph
// node and the line share the clone.
func (c *IndexedCache) PutWithTolerance(q vec.Vector, docs []int, tol float32) {
	f := c.flat
	if !f.storable(q, tol) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	if len(f.tols) >= f.opts.Capacity {
		c.evictLocked()
	}
	key := vec.Clone(q)
	node, err := c.graph.Insert(key)
	if err != nil {
		return // dim checked above; unreachable
	}
	for len(c.slotOf) <= node {
		c.slotOf = append(c.slotOf, noSlot)
	}
	c.slotOf[node] = int32(len(f.tols))
	c.nodeOf = append(c.nodeOf, int32(node))
	f.appendLocked(key, docs, tol)
	c.maybeMaintainLocked()
}

// evictLocked tombstones the graph node of FlatCache's next victim, then
// evicts it. FlatCache moves its last line into the victim's slot, and
// the moved line's node moves with it.
func (c *IndexedCache) evictLocked() {
	f := c.flat
	v, last := f.front, int32(len(f.tols)-1)
	node := c.nodeOf[v]
	if err := c.graph.Delete(int(node)); err != nil {
		panic(fmt.Sprintf("core: graph/cache desync on evict: %v", err))
	}
	c.nodeOf[v] = c.nodeOf[last]
	c.slotOf[c.nodeOf[v]] = v
	c.slotOf[node] = noSlot
	c.nodeOf = c.nodeOf[:last]
	f.evictLocked()
	// The graph reads a tombstone's key until it reuses the node (its
	// in-edges are re-routed by distance to it), so FlatCache must not
	// recycle the victim's key for the next line.
	f.spare = nil
}

// maybeMaintainLocked runs one budgeted repair pass once Every slots have
// been reused since the last one. Called with the cache lock held, so the
// pass is serialized against every other graph mutation for free; the
// Budget cap bounds how long this Put holds the lock.
func (c *IndexedCache) maybeMaintainLocked() {
	if m := c.opts.Maintenance; m != nil && c.graph.ReusedSinceRepair() >= m.Every {
		c.repairLocked(m.Budget)
	}
}

// Maintain runs repair passes until the graph's pending-repair queue is
// drained or budget nodes have been examined (budget <= 0 drains fully).
// Useful before a latency-sensitive phase or in tests; the scheduled
// path (IndexedOptions.Maintenance) normally makes this unnecessary.
func (c *IndexedCache) Maintain(budget int) hnsw.RepairStats {
	c.flat.mu.Lock()
	defer c.flat.mu.Unlock()
	if budget <= 0 {
		budget = c.graph.PendingRepair()
	}
	if budget == 0 {
		return hnsw.RepairStats{}
	}
	return c.repairLocked(budget)
}

// repairLocked runs one repair pass of at most budget nodes, timing it.
func (c *IndexedCache) repairLocked(budget int) hnsw.RepairStats {
	start := time.Now()
	st := c.graph.Repair(budget)
	d := time.Since(start)
	c.repairNanos += int64(d)
	c.opts.Telemetry.ObserveStage(telemetry.StageGraphRepair, d)
	return st
}

// Len returns the number of cached entries.
func (c *IndexedCache) Len() int { return c.flat.Len() }

// Capacity returns the configured capacity.
func (c *IndexedCache) Capacity() int { return c.flat.Capacity() }

// Tolerance returns the cache-wide similarity threshold τ.
func (c *IndexedCache) Tolerance() float32 { return c.flat.Tolerance() }

// Policy returns the eviction policy.
func (c *IndexedCache) Policy() Policy { return c.flat.Policy() }

// SetEfSearch retunes the lookup beam width at runtime — the
// recall-vs-latency knob. Wider beams recover graph recall on hard
// (high-dimensional, unclustered) key distributions without a rebuild.
// Values below 1 are ignored.
func (c *IndexedCache) SetEfSearch(ef int) {
	if ef < 1 {
		return
	}
	c.flat.mu.Lock()
	defer c.flat.mu.Unlock()
	c.opts.EfSearch = ef
}

// EfSearch returns the current lookup beam width.
func (c *IndexedCache) EfSearch() int {
	c.flat.mu.RLock()
	defer c.flat.mu.RUnlock()
	return c.opts.EfSearch
}

// Stats returns a snapshot of the counters, with the graph's in the
// Index block. DistComps counts graph hops plus exact re-ranks plus
// fallback scans — the all-in distance work of lookups, comparable to
// the flat scan's counter.
func (c *IndexedCache) Stats() Stats {
	c.flat.mu.RLock()
	defer c.flat.mu.RUnlock()
	s := c.flat.stats
	s.DistComps = c.flat.distComps.Load()
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
		Nodes:           len(c.flat.tols),
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
	c.flat.mu.Lock()
	defer c.flat.mu.Unlock()
	graph, err := c.newGraph()
	if err != nil {
		panic(fmt.Sprintf("core: rebuilding graph with validated config: %v", err))
	}
	c.cleared = c.indexStatsLocked()
	c.graph = graph
	c.nodeOf, c.slotOf = nil, nil
	c.flat.clearLocked()
}

// Entries returns copies of the cached lines in eviction order (front
// first).
func (c *IndexedCache) Entries() []Entry { return c.flat.Entries() }
