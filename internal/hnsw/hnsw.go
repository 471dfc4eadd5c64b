// Package hnsw implements a Hierarchical Navigable Small World graph index
// (Malkov & Yashunin, TPAMI 2018) — the reproduction's stand-in for
// FAISS-HNSW, which the paper uses to serve the 21M-passage wiki_dpr
// corpus for the MMLU benchmark (§4.2.1).
//
// The index is a multi-layer proximity graph: each vector is assigned a
// maximum layer drawn from a geometric distribution; search descends
// greedily from the sparse top layers to layer 0, where a best-first beam
// of width ef explores the dense base graph.
//
// Beyond the static database role, the index tracks an EVICTING cache
// (core.IndexedCache): Insert assigns ids incrementally, Delete tombstones
// a node (its edges stay traversable so the graph never fragments, but it
// is excluded from results), and tombstoned slots are reused by later
// inserts — steady-state churn at a fixed capacity neither grows the
// graph nor requires rebuilds. With Config.Quantized the traversal ranks
// candidates by asymmetric int8 distances (vec.Quantized), streaming one
// byte per dimension instead of four through the beam's inner loop.
//
// Slot reuse is where churn used to erode recall: edges built toward the
// evicted vector kept pointing at the slot after an unrelated vector
// moved in, silently mis-routing traversal. The index now tracks a
// bounded reverse-edge (in-neighbor) list per slot, so reuse severs every
// stale in-edge — re-routing each pointing node to the evictee's nearest
// surviving out-neighbor when it has room — and the recycled slot is
// re-linked bidirectionally at its freshly drawn level. Neighborhoods
// that lost an edge without a replacement queue for Repair, the
// incremental background pass that re-links them in small batches.
//
// Insert, Delete, and Repair must be externally serialized (the cache
// holds its own lock); Search is safe for concurrent use between
// mutations.
package hnsw

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// Config parameterizes graph construction.
type Config struct {
	// M is the out-degree target for upper layers (layer 0 allows 2M).
	// Default 16.
	M int
	// EfConstruction is the beam width used while inserting. Default 200.
	EfConstruction int
	// EfSearch is the default beam width for queries. Default 64;
	// raise for higher recall, lower for faster lookups.
	EfSearch int
	// Seed drives the layer assignment.
	Seed uint64
	// Quantized stores an int8 scalar-quantized copy of every vector
	// and ranks query-time traversal by the asymmetric quantized
	// kernel. Construction-time link selection keeps full precision
	// (the graph is built once, searched many times), and the exact
	// float32 vectors remain available through Vector for re-ranking.
	Quantized bool
	// DisableInEdgeRepair turns off reverse-edge tracking and the
	// sever/re-route pass on slot reuse — the pre-repair behavior, in
	// which edges built toward an evicted vector keep routing traversal
	// to whatever vector reuses its slot. Kept only so the churn
	// experiment can measure the repair machinery's cost and recall
	// value against the legacy graph; leave it off in production.
	DisableInEdgeRepair bool
}

func (c *Config) fillDefaults() {
	if c.M == 0 {
		c.M = 16
	}
	if c.EfConstruction == 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch == 0 {
		c.EfSearch = 64
	}
}

func (c Config) validate() error {
	if c.M < 2 {
		return fmt.Errorf("hnsw: M must be ≥ 2, got %d", c.M)
	}
	if c.EfConstruction < 1 || c.EfSearch < 1 {
		return fmt.Errorf("hnsw: ef parameters must be positive (construction=%d search=%d)",
			c.EfConstruction, c.EfSearch)
	}
	return nil
}

// Index is the HNSW graph. It implements vectordb.DB and
// vectordb.VectorSource.
type Index struct {
	cfg    Config
	dim    int
	metric vec.Metric
	dist   vec.DistanceFunc
	rng    interface{ Float64() float64 }
	mult   float64 // level multiplier 1/ln(M)

	vectors []vec.Vector
	codes   []vec.Quantized // parallel to vectors; nil unless cfg.Quantized
	levels  []int           // max layer per node
	deleted []bool          // tombstones: traversable but never returned
	free    []int           // tombstoned slots awaiting reuse
	numDel  int

	// Layer-0 adjacency is a dense slice (every node lives there; the
	// beam spends almost all its time on it); upper layers are sparse
	// maps (a 1/M^l fraction of nodes).
	base  [][]int         // base[node] = neighbor ids
	upper []map[int][]int // upper[l-1][node] = neighbor ids at layer l

	// inEdges[v] tracks which (node, layer) pairs currently list v as a
	// neighbor, bounded at inBound refs per slot, so slot reuse can
	// sever the edges aimed at the evicted vector instead of leaving
	// them mis-routing traversal. nil when Config.DisableInEdgeRepair.
	inEdges [][]inRef
	inBound int

	// dirty queues nodes whose neighborhood degraded (an edge severed
	// with no replacement available) for the incremental Repair pass;
	// dirtySet deduplicates membership.
	dirty    []int
	dirtySet []bool

	// Churn-pressure and repair counters (mutation-path, so plain ints
	// under the caller's serialization).
	reused            int64 // slots recycled by allocSlot
	reusedSinceRepair int   // reset by Repair; the maintenance trigger
	severed           int64 // stale in-edges removed at reuse
	rerouted          int64 // severed edges replaced with a live target
	droppedRefs       int64 // in-edge refs lost to the per-slot bound
	repairPasses      int64
	repairedNodes     int64

	entry    int // entry point node, -1 when no live node exists
	maxLevel int

	// searches/hops count query-time Search calls and their distance
	// evaluations (greedy descent + beam). Atomic because Search is
	// concurrent; construction work is excluded.
	searches atomic.Int64
	hops     atomic.Int64

	scratch sync.Pool // *searchScratch
}

var (
	_ vectordb.DB           = (*Index)(nil)
	_ vectordb.VectorSource = (*Index)(nil)
)

// New creates an empty HNSW index.
func New(dim int, metric vec.Metric, cfg Config) (*Index, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("hnsw: dimension must be positive, got %d", dim)
	}
	return &Index{
		cfg:     cfg,
		dim:     dim,
		metric:  metric,
		dist:    metric.Func(),
		rng:     vec.NewRand(cfg.Seed),
		mult:    1 / math.Log(float64(cfg.M)),
		inBound: 4 * cfg.M,
		entry:   -1,
	}, nil
}

// Dim returns the indexed dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Len returns the number of live (non-tombstoned) vectors.
func (ix *Index) Len() int { return len(ix.vectors) - ix.numDel }

// Slots returns the total number of graph slots, live plus tombstoned.
func (ix *Index) Slots() int { return len(ix.vectors) }

// Tombstones returns the number of deleted-but-not-yet-reused slots.
func (ix *Index) Tombstones() int { return ix.numDel }

// Metric returns the distance metric.
func (ix *Index) Metric() vec.Metric { return ix.metric }

// Quantized reports whether traversal uses int8 quantized distances.
func (ix *Index) Quantized() bool { return ix.cfg.Quantized }

// Hops returns the cumulative distance evaluations performed by query
// searches (greedy descent plus beam expansion) — the graph-traversal
// analogue of a flat scan's DistComps.
func (ix *Index) Hops() int64 { return ix.hops.Load() }

// Searches returns the cumulative query search count.
func (ix *Index) Searches() int64 { return ix.searches.Load() }

// Vector returns the stored vector for an ID (tombstoned slots included:
// the slot retains its last vector until reused).
func (ix *Index) Vector(id int) (vec.Vector, error) {
	if id < 0 || id >= len(ix.vectors) {
		return nil, fmt.Errorf("hnsw: id %d out of range (have %d)", id, len(ix.vectors))
	}
	return ix.vectors[id], nil
}

// Deleted reports whether the slot is tombstoned.
func (ix *Index) Deleted(id int) bool {
	return id >= 0 && id < len(ix.deleted) && ix.deleted[id]
}

// Add inserts vectors sequentially. Not safe to call concurrently with
// Search.
func (ix *Index) Add(vectors ...vec.Vector) error {
	for i, v := range vectors {
		if len(v) != ix.dim {
			return fmt.Errorf("hnsw: vector %d has dim %d, index dim %d: %w",
				i, len(v), ix.dim, vec.ErrDimensionMismatch)
		}
	}
	for _, v := range vectors {
		ix.insert(v)
	}
	return nil
}

// Insert adds one vector and returns its assigned slot id — a tombstoned
// slot when one is free, a fresh one otherwise. The id is stable until
// Delete(id); callers tracking external state per entry (the indexed
// cache) key it by this id. Not safe to call concurrently with Search.
func (ix *Index) Insert(v vec.Vector) (int, error) {
	if len(v) != ix.dim {
		return 0, fmt.Errorf("hnsw: vector has dim %d, index dim %d: %w",
			len(v), ix.dim, vec.ErrDimensionMismatch)
	}
	return ix.insert(v), nil
}

// Delete tombstones a slot: the node's edges remain traversable so paths
// through it survive, but it is excluded from every result set, and the
// slot is queued for reuse by a later Insert. Not safe to call
// concurrently with Search.
func (ix *Index) Delete(id int) error {
	if id < 0 || id >= len(ix.vectors) {
		return fmt.Errorf("hnsw: delete id %d out of range (have %d)", id, len(ix.vectors))
	}
	if ix.deleted[id] {
		return fmt.Errorf("hnsw: id %d already deleted", id)
	}
	ix.deleted[id] = true
	ix.numDel++
	ix.free = append(ix.free, id)
	if ix.Len() == 0 {
		ix.entry = -1
		ix.maxLevel = 0
	} else if id == ix.entry {
		ix.resetEntry()
	}
	return nil
}

// resetEntry re-elects the entry point after the current one was
// tombstoned. The old entry's own neighbor lists are tried first — its
// top-layer neighbors are the highest-level nodes the graph knows about,
// and scanning them is O(levels·M) — so eviction patterns that
// repeatedly hit the entry no longer pay an O(n) sweep per Delete. The
// full scan remains as the fallback when every listed neighbor is
// tombstoned. The elected node's level may undercut the true global
// maximum (its seniors stay reachable through layer 0, and a later
// higher-level insert re-takes the top), which both paths accept:
// maxLevel tracks the entry, not the population.
func (ix *Index) resetEntry() {
	old := ix.entry
	best, bestLevel := -1, -1
	if old >= 0 {
		for l := ix.levels[old]; l >= 0; l-- {
			for _, n := range ix.neighbors(old, l) {
				if !ix.deleted[n] && ix.levels[n] > bestLevel {
					best, bestLevel = n, ix.levels[n]
				}
			}
		}
	}
	if best < 0 {
		for i := range ix.vectors {
			if !ix.deleted[i] && ix.levels[i] > bestLevel {
				best, bestLevel = i, ix.levels[i]
			}
		}
	}
	ix.entry = best
	if best >= 0 {
		ix.maxLevel = bestLevel
	} else {
		ix.maxLevel = 0
	}
}

func (ix *Index) randomLevel() int {
	return int(-math.Log(1-ix.rng.Float64()) * ix.mult)
}

func (ix *Index) neighbors(node, layer int) []int {
	if layer == 0 {
		if node >= len(ix.base) {
			return nil
		}
		return ix.base[node]
	}
	if layer-1 >= len(ix.upper) {
		return nil
	}
	return ix.upper[layer-1][node]
}

func (ix *Index) setNeighbors(node, layer int, ns []int) {
	if layer == 0 {
		for len(ix.base) <= node {
			ix.base = append(ix.base, nil)
		}
		ix.base[node] = ns
		return
	}
	for len(ix.upper) < layer {
		ix.upper = append(ix.upper, make(map[int][]int))
	}
	ix.upper[layer-1][node] = ns
}

// inRef records one tracked incoming edge: refs[v] holds (node, layer)
// pairs whose adjacency list at that layer contains v.
type inRef struct {
	node  int32
	layer int32
}

// trackInEdges reports whether reverse-edge bookkeeping is on.
func (ix *Index) trackInEdges() bool { return !ix.cfg.DisableInEdgeRepair }

// addInEdge records the edge from→to at layer. Upper-layer refs are
// always tracked: a stale upper edge mis-routes the greedy descent
// itself (the costliest failure) and there are few of them — layer-l
// edges originate from the ~n/2^l nodes of level ≥ l, each with
// out-degree ≤ M. Base-layer refs are bounded at inBound per slot; on
// overflow the new ref is dropped and counted, and that edge simply
// survives the slot's next reuse untracked (the wide layer-0 beam
// tolerates a few stale edges; the descent does not).
func (ix *Index) addInEdge(to, from, layer int) {
	if !ix.trackInEdges() {
		return
	}
	refs := ix.inEdges[to]
	if layer == 0 && len(refs) >= ix.inBound {
		ix.droppedRefs++
		return
	}
	ix.inEdges[to] = append(refs, inRef{node: int32(from), layer: int32(layer)})
}

// removeInEdge forgets the tracked edge from→to at layer (swap-remove;
// missing refs — dropped at the bound — are ignored).
func (ix *Index) removeInEdge(to, from, layer int) {
	if !ix.trackInEdges() {
		return
	}
	refs := ix.inEdges[to]
	for i, r := range refs {
		if r.node == int32(from) && r.layer == int32(layer) {
			refs[i] = refs[len(refs)-1]
			ix.inEdges[to] = refs[:len(refs)-1]
			return
		}
	}
}

// markDirty queues a node whose neighborhood degraded for Repair.
func (ix *Index) markDirty(u int) {
	for len(ix.dirtySet) <= u {
		ix.dirtySet = append(ix.dirtySet, false)
	}
	if !ix.dirtySet[u] {
		ix.dirtySet[u] = true
		ix.dirty = append(ix.dirty, u)
	}
}

// severInEdges repairs the graph around a slot that is about to be
// reused: every tracked edge that pointed at the evicted vector is
// removed from its owner's adjacency list, and where possible re-routed
// in place to the evictee's old out-neighbor closest to the pointing
// node — preserving connectivity through the region the evictee used to
// bridge. Owners left short an edge are queued for Repair. Must run
// before clearNeighbors (it reads the evictee's old out-edges as
// re-route candidates).
func (ix *Index) severInEdges(id int) {
	if !ix.trackInEdges() {
		return
	}
	refs := ix.inEdges[id]
	ix.inEdges[id] = refs[:0]
	// Rank the evictee's surviving out-neighbors by proximity to the
	// evicted vector once per layer; every severed edge at that layer
	// re-routes from this list with no further distance work. The
	// replacement sits near the hole the eviction leaves — which is
	// where the severed edges were aimed — so routing toward that
	// region survives. (An earlier version picked the candidate nearest
	// each in-neighbor instead: marginally better edges, but O(in-degree
	// × out-degree) distance computations per reuse, which showed up as
	// >20% Put overhead under heavy churn.)
	var ranked [][]int
	for _, r := range refs {
		u, l := int(r.node), int(r.layer)
		ns := ix.neighbors(u, l)
		i := slices.Index(ns, id)
		if i < 0 {
			continue
		}
		ix.severed++
		if ranked == nil {
			ranked = ix.rankSurvivors(id)
		}
		if w := rerouteTarget(ranked, u, l, ns); w >= 0 {
			ns[i] = w
			ix.addInEdge(w, u, l)
			ix.rerouted++
			continue
		}
		ns[i] = ns[len(ns)-1]
		ix.setNeighbors(u, l, ns[:len(ns)-1])
		ix.markDirty(u)
	}
}

// rankSurvivors orders the evictee's live out-neighbors at each of its
// layers by distance to the evicted vector (still resident in
// vectors[id] at sever time), nearest first.
func (ix *Index) rankSurvivors(id int) [][]int {
	ranked := make([][]int, ix.levels[id]+1)
	old := ix.vectors[id]
	for l := range ranked {
		ns := ix.neighbors(id, l)
		scored := make([]vec.Scored, 0, len(ns))
		for _, w := range ns {
			if ix.deleted[w] {
				continue
			}
			scored = append(scored, vec.Scored{ID: w, Dist: ix.dist(old, ix.vectors[w])})
		}
		ranked[l] = vec.IDs(vec.TopK(scored, len(scored)))
	}
	return ranked
}

// rerouteTarget picks the replacement for a severed edge u→id at layer:
// the best-ranked survivor u is not already linked to. Returns -1 when
// no candidate qualifies (the edge is then dropped and u queued for
// repair).
func rerouteTarget(ranked [][]int, u, layer int, uNeighbors []int) int {
	if layer >= len(ranked) {
		return -1
	}
	for _, w := range ranked[layer] {
		if w != u && !slices.Contains(uNeighbors, w) {
			return w
		}
	}
	return -1
}

// clearNeighbors drops a slot's outgoing edges at every layer (and their
// reverse refs) before the slot is reused.
func (ix *Index) clearNeighbors(node int) {
	if node < len(ix.base) {
		for _, n := range ix.base[node] {
			ix.removeInEdge(n, node, 0)
		}
		ix.base[node] = nil
	}
	for l := range ix.upper {
		if ns, ok := ix.upper[l][node]; ok {
			for _, n := range ns {
				ix.removeInEdge(n, node, l+1)
			}
			delete(ix.upper[l], node)
		}
	}
}

// allocSlot claims a slot for v: a tombstoned one when available — after
// severing the stale edges still aimed at its previous occupant and
// clearing its old adjacency — or a fresh append otherwise.
func (ix *Index) allocSlot(v vec.Vector, level int) int {
	if n := len(ix.free); n > 0 {
		id := ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.severInEdges(id)
		ix.clearNeighbors(id)
		ix.vectors[id] = v
		ix.levels[id] = level
		ix.deleted[id] = false
		ix.numDel--
		ix.reused++
		ix.reusedSinceRepair++
		if ix.cfg.Quantized {
			ix.codes[id] = vec.Quantize(v)
		}
		return id
	}
	id := len(ix.vectors)
	ix.vectors = append(ix.vectors, v)
	ix.levels = append(ix.levels, level)
	ix.deleted = append(ix.deleted, false)
	if ix.trackInEdges() {
		ix.inEdges = append(ix.inEdges, nil)
	}
	if ix.cfg.Quantized {
		ix.codes = append(ix.codes, vec.Quantize(v))
	}
	return id
}

func (ix *Index) insert(v vec.Vector) int {
	level := ix.randomLevel()
	id := ix.allocSlot(v, level)

	if ix.entry < 0 {
		for l := 0; l <= level; l++ {
			ix.setNeighbors(id, l, nil)
		}
		ix.entry = id
		ix.maxLevel = level
		return id
	}

	// Construction keeps full float32 precision regardless of the
	// quantized setting: link quality is decided once and searched
	// forever after.
	ctx := searchCtx{ix: ix, q: v}
	scr := ix.getScratch()

	ep := ix.entry
	// Greedy descent through layers above the node's level.
	for l := ix.maxLevel; l > level; l-- {
		ep = ix.greedyClosest(&ctx, ep, l)
	}
	// Beam insert from min(level, maxLevel) down to 0.
	for l := min(level, ix.maxLevel); l >= 0; l-- {
		candidates := ix.searchLayer(&ctx, scr, ep, ix.cfg.EfConstruction, l, nil)
		m := ix.cfg.M
		if l == 0 {
			m = 2 * ix.cfg.M
		}
		selected := vec.TopK(candidates, ix.cfg.M)
		ns := vec.IDs(selected)
		ix.setNeighbors(id, l, ns)
		for _, n := range ns {
			ix.addInEdge(n, id, l)
			ix.linkBack(n, id, l, m)
		}
		if len(candidates) > 0 {
			ep = candidates[0].ID
		}
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = id
	}
	ix.putScratch(scr)
	return id
}

// RepairStats reports one incremental Repair pass.
type RepairStats struct {
	// Examined is the number of dirty nodes dequeued (budget-bounded).
	Examined int
	// Relinked is how many of those were live and had their
	// neighborhoods rebuilt.
	Relinked int
}

// MaintenanceStats is the churn-pressure and repair counter snapshot.
type MaintenanceStats struct {
	// ReusedSlots counts tombstoned slots recycled by Insert.
	ReusedSlots int64
	// SeveredInEdges counts stale incoming edges removed at reuse.
	SeveredInEdges int64
	// ReroutedInEdges counts severed edges replaced in place with the
	// evictee's nearest surviving out-neighbor.
	ReroutedInEdges int64
	// DroppedInRefs counts reverse refs lost to the per-slot bound
	// (those edges survive the slot's next reuse untracked).
	DroppedInRefs int64
	// RepairPasses and RepairedNodes count Repair invocations and the
	// neighborhoods they rebuilt.
	RepairPasses  int64
	RepairedNodes int64
	// PendingRepair is the dirty-queue depth awaiting a pass.
	PendingRepair int
	// ReusedSinceRepair is the churn-pressure trigger: slot reuses
	// since the last Repair.
	ReusedSinceRepair int
}

// Maintenance returns the churn-pressure and repair counters.
func (ix *Index) Maintenance() MaintenanceStats {
	return MaintenanceStats{
		ReusedSlots:       ix.reused,
		SeveredInEdges:    ix.severed,
		ReroutedInEdges:   ix.rerouted,
		DroppedInRefs:     ix.droppedRefs,
		RepairPasses:      ix.repairPasses,
		RepairedNodes:     ix.repairedNodes,
		PendingRepair:     len(ix.dirty),
		ReusedSinceRepair: ix.reusedSinceRepair,
	}
}

// PendingRepair returns the dirty-queue depth: nodes whose neighborhood
// lost an edge without a replacement, awaiting an incremental Repair.
func (ix *Index) PendingRepair() int { return len(ix.dirty) }

// ReusedSinceRepair returns the slot reuses since the last Repair pass —
// the churn-pressure signal maintenance schedules on.
func (ix *Index) ReusedSinceRepair() int { return ix.reusedSinceRepair }

// Repair is the incremental background maintenance pass: it dequeues up
// to budget nodes whose neighborhoods degraded (an in-edge severed at
// slot reuse with no re-route available) and rebuilds each one's
// adjacency with a construction-quality beam search, linking back
// bidirectionally — the same work an insert would do, amortized over
// small batches so no single Put stalls. Resets the reused-since-repair
// pressure counter. Must be serialized with Insert/Delete, like every
// mutation.
func (ix *Index) Repair(budget int) RepairStats {
	var st RepairStats
	if budget <= 0 {
		return st
	}
	ix.repairPasses++
	ix.reusedSinceRepair = 0
	for st.Examined < budget && len(ix.dirty) > 0 {
		u := ix.dirty[len(ix.dirty)-1]
		ix.dirty = ix.dirty[:len(ix.dirty)-1]
		ix.dirtySet[u] = false
		st.Examined++
		if ix.deleted[u] || ix.entry < 0 || ix.Len() < 2 {
			continue
		}
		ix.relink(u)
		st.Relinked++
	}
	ix.repairedNodes += int64(st.Relinked)
	return st
}

// relink rebuilds a live node's neighborhood at every layer it occupies:
// a fresh construction search for its own vector, merged with whatever
// healthy edges it still has, re-selecting the M best and linking new
// neighbors back — an in-place re-insert that never moves the slot.
func (ix *Index) relink(u int) {
	ctx := searchCtx{ix: ix, q: ix.vectors[u]}
	scr := ix.getScratch()
	defer ix.putScratch(scr)
	level := ix.levels[u]
	ep := ix.entry
	for l := ix.maxLevel; l > level; l-- {
		ep = ix.greedyClosest(&ctx, ep, l)
	}
	for l := min(level, ix.maxLevel); l >= 0; l-- {
		candidates := ix.searchLayer(&ctx, scr, ep, ix.cfg.EfConstruction, l, nil)
		if len(candidates) > 0 {
			ep = candidates[0].ID
		}
		// Merge search results with current neighbors (the search may
		// miss a healthy existing edge), excluding u itself.
		cur := ix.neighbors(u, l)
		merged := make([]vec.Scored, 0, len(candidates)+len(cur))
		for _, c := range candidates {
			if c.ID != u {
				merged = append(merged, c)
			}
		}
		for _, n := range cur {
			if n != u && !containsID(candidates, n) {
				merged = append(merged, vec.Scored{ID: n, Dist: ctx.distTo(n)})
			}
		}
		if len(merged) == 0 {
			continue
		}
		ns := vec.IDs(vec.TopK(merged, ix.cfg.M))
		ix.replaceNeighbors(u, l, ns)
		m := ix.cfg.M
		if l == 0 {
			m = 2 * ix.cfg.M
		}
		for _, n := range ns {
			if !slices.Contains(ix.neighbors(n, l), u) {
				ix.linkBack(n, u, l, m)
			}
		}
	}
}

// containsID reports whether the scored set mentions id.
func containsID(s []vec.Scored, id int) bool {
	for _, c := range s {
		if c.ID == id {
			return true
		}
	}
	return false
}

// replaceNeighbors swaps a node's adjacency at one layer for ns, keeping
// the reverse refs consistent on both the dropped and the added edges.
func (ix *Index) replaceNeighbors(node, layer int, ns []int) {
	old := ix.neighbors(node, layer)
	for _, o := range old {
		if !slices.Contains(ns, o) {
			ix.removeInEdge(o, node, layer)
		}
	}
	for _, n := range ns {
		if !slices.Contains(old, n) {
			ix.addInEdge(n, node, layer)
		}
	}
	ix.setNeighbors(node, layer, ns)
}

// linkBack adds id to node's neighbor list at the layer, pruning to the
// mMax closest if the list overflows. The new edge's reverse ref is
// recorded, and pruned-out neighbors lose theirs, so reuse-time severing
// never chases an edge that no longer exists.
func (ix *Index) linkBack(node, id, layer, mMax int) {
	ns := append(ix.neighbors(node, layer), id)
	ix.addInEdge(id, node, layer)
	if len(ns) > mMax {
		scored := make([]vec.Scored, len(ns))
		base := ix.vectors[node]
		for i, n := range ns {
			scored[i] = vec.Scored{ID: n, Dist: ix.dist(base, ix.vectors[n])}
		}
		kept := vec.IDs(vec.TopK(scored, mMax))
		for _, n := range ns {
			if !slices.Contains(kept, n) {
				ix.removeInEdge(n, node, layer)
			}
		}
		ns = kept
	}
	ix.setNeighbors(node, layer, ns)
}

// searchCtx carries one query through a traversal: the float32 query, the
// prepared quantized form when the index ranks by int8 codes, and the
// hop (distance evaluation) count.
type searchCtx struct {
	ix    *Index
	q     vec.Vector
	pq    vec.PreparedQuery
	quant bool
	hops  int64
}

func (c *searchCtx) distTo(id int) float32 {
	c.hops++
	if c.quant {
		return c.pq.Dist(&c.ix.codes[id])
	}
	return c.ix.dist(c.q, c.ix.vectors[id])
}

// greedyClosest walks layer l from ep to the locally closest node to q.
// Tombstoned nodes still serve as waypoints.
func (ix *Index) greedyClosest(ctx *searchCtx, ep, layer int) int {
	cur := ep
	curDist := ctx.distTo(cur)
	for {
		improved := false
		for _, n := range ix.neighbors(cur, layer) {
			if d := ctx.distTo(n); d < curDist {
				cur, curDist = n, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchScratch is the reusable per-search state: an epoch-stamped
// visited set (reset is a counter bump, not a clear) and the two beam
// heaps plus an output slice, all retaining their backing arrays across
// searches so steady-state lookups allocate nothing.
type searchScratch struct {
	visited []uint32
	epoch   uint32
	cands   minHeap
	results maxHeap
	out     []vec.Scored
}

func (s *searchScratch) begin(n int) {
	if len(s.visited) < n {
		grown := make([]uint32, n)
		copy(grown, s.visited)
		s.visited = grown
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, clear once
		clear(s.visited)
		s.epoch = 1
	}
	s.cands = s.cands[:0]
	s.results = s.results[:0]
	s.out = s.out[:0]
}

func (s *searchScratch) seen(id int) bool { return s.visited[id] == s.epoch }
func (s *searchScratch) mark(id int)      { s.visited[id] = s.epoch }

func (ix *Index) getScratch() *searchScratch {
	if s, ok := ix.scratch.Get().(*searchScratch); ok {
		return s
	}
	return &searchScratch{}
}

func (ix *Index) putScratch(s *searchScratch) { ix.scratch.Put(s) }

// searchLayer is the best-first beam search of HNSW (Algorithm 2 of the
// paper's HNSW reference): it maintains the ef closest found so far and
// expands the closest unexplored candidate until no candidate can improve
// the result set. Tombstoned nodes are expanded (the graph stays
// connected through them) but never retained as results. Returns found
// nodes sorted ascending by distance; the slice aliases scratch and is
// valid until the scratch's next use.
func (ix *Index) searchLayer(ctx *searchCtx, s *searchScratch, ep, ef, layer int, deleted []bool) []vec.Scored {
	s.begin(len(ix.vectors))
	s.mark(ep)
	epDist := ctx.distTo(ep)

	// candidates: min-heap by distance; results: max-heap capped at ef.
	s.cands.push(vec.Scored{ID: ep, Dist: epDist})
	if deleted == nil || !deleted[ep] {
		s.results.push(vec.Scored{ID: ep, Dist: epDist})
	}

	for len(s.cands) > 0 {
		c := s.cands.pop()
		if len(s.results) >= ef && c.Dist > s.results[0].Dist {
			break
		}
		for _, n := range ix.neighbors(c.ID, layer) {
			if s.seen(n) {
				continue
			}
			s.mark(n)
			d := ctx.distTo(n)
			if len(s.results) < ef || d < s.results[0].Dist {
				s.cands.push(vec.Scored{ID: n, Dist: d})
				if deleted == nil || !deleted[n] {
					s.results.push(vec.Scored{ID: n, Dist: d})
					if len(s.results) > ef {
						s.results.pop()
					}
				}
			}
		}
	}
	s.out = append(s.out, s.results...)
	slices.SortFunc(s.out, func(a, b vec.Scored) int {
		if a.Dist != b.Dist {
			if a.Dist < b.Dist {
				return -1
			}
			return 1
		}
		return a.ID - b.ID
	})
	return s.out
}

// Search returns the approximate k nearest neighbors using the default
// EfSearch beam width.
func (ix *Index) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	return ix.SearchEf(q, k, ix.cfg.EfSearch)
}

// SearchEf searches with an explicit beam width ef ≥ k for recall tuning.
func (ix *Index) SearchEf(q vec.Vector, k, ef int) ([]vec.Scored, error) {
	return ix.SearchInto(nil, q, k, ef)
}

// SearchInto is SearchEf appending results into dst (grown as needed) —
// the allocation-free entry point for hot-path callers that own a result
// buffer. With Config.Quantized the returned distances are asymmetric
// int8 approximations intended for candidate ranking; re-rank with the
// exact kernel before threshold comparisons.
//
//proximity:hotpath
func (ix *Index) SearchInto(dst []vec.Scored, q vec.Vector, k, ef int) ([]vec.Scored, error) {
	if k <= 0 {
		return nil, vectordb.ErrBadK
	}
	if ix.Len() == 0 {
		return nil, vectordb.ErrEmptyIndex
	}
	if len(q) != ix.dim {
		//proximity:allow hotpathalloc cold rejection path, never taken by a well-formed caller
		return nil, fmt.Errorf("hnsw: query dim %d, index dim %d: %w",
			len(q), ix.dim, vec.ErrDimensionMismatch)
	}
	if ef < k {
		ef = k
	}
	ctx := searchCtx{ix: ix, q: q, quant: ix.cfg.Quantized}
	if ctx.quant {
		ctx.pq = ix.metric.Prepare(q)
	}
	scr := ix.getScratch()
	var deleted []bool
	if ix.numDel > 0 {
		deleted = ix.deleted
	}
	ep := ix.entry
	for l := ix.maxLevel; l > 0; l-- {
		ep = ix.greedyClosest(&ctx, ep, l)
	}
	found := ix.searchLayer(&ctx, scr, ep, ef, 0, deleted)
	if len(found) > k {
		found = found[:k]
	}
	dst = append(dst, found...)
	ix.putScratch(scr)
	ix.searches.Add(1)
	ix.hops.Add(ctx.hops)
	return dst, nil
}

// minHeap and maxHeap are binary heaps of scored nodes with typed
// push/pop: container/heap routes every element through interface{},
// which boxes a 16-byte vec.Scored onto the GC heap per push — hundreds
// of allocations per beam search. The hand-rolled sifts keep the search
// scratch genuinely allocation-free in steady state.
type minHeap []vec.Scored

func (h *minHeap) push(x vec.Scored) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].Dist <= s[i].Dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *minHeap) pop() vec.Scored {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].Dist < s[l].Dist {
			m = r
		}
		if s[i].Dist <= s[m].Dist {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

type maxHeap []vec.Scored

func (h *maxHeap) push(x vec.Scored) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].Dist >= s[i].Dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *maxHeap) pop() vec.Scored {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].Dist > s[l].Dist {
			m = r
		}
		if s[i].Dist >= s[m].Dist {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
