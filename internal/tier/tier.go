// Package tier implements a hot/warm/cold cache hierarchy over the
// Proximity variants in internal/core.
//
// The hot tier is a small in-memory cache (FLAT or LSH — anything
// satisfying core.TierCache). The warm tier is a larger file-backed store
// that absorbs hot-tier evictions instead of letting them be discarded
// (demotion), and hands entries back on a warm hit (promotion, LRU
// only). The cold tier is internal/core's one snapshot format:
// core.SaveSnapshot writes the combined contents in eviction order
// (Entries: warm, then hot), and core.LoadSnapshot replays them through
// PutWithTolerance, which re-layers the hierarchy exactly — the oldest
// entries fill the hot tier first and cascade into the warm tier as
// younger ones displace them — so a restart resumes with the whole
// hierarchy warm.
//
// The composition is semantically conservative: a TieredCache with hot
// capacity H and warm capacity W admits, hits, and evicts exactly like a
// single flat cache of capacity H+W (whenever the closest admissible
// distance is unique — float ties between distinct keys break toward the
// hot tier where a flat scan's break is scan-order-dependent). The
// invariant maintained throughout is that the combined eviction order is
// the warm tier's order followed by the hot tier's: every warm entry is
// older than every hot entry, demotion moves the hot front onto the warm
// back, and a full warm tier discards its front — the globally oldest
// entry, exactly the one the equivalent flat cache would evict.
//
// Moving an entry between tiers allocates no key: the hot tier's OnEvict
// hands its victim's key over, the warm tier copies it into its record
// file, and core.TierCache's Recycle hands the buffer back for the hot
// tier's next insert. In steady state a promotion and an evicting Put
// reuse one buffer. The tier reads the clock only for Options.Telemetry.
package tier

import (
	"fmt"
	"math"
	"sync"
	"time"

	"proximity/internal/core"
	"proximity/internal/telemetry"
	"proximity/internal/vec"
)

// Options configures a TieredCache.
type Options struct {
	// HotCapacity is the in-memory hot tier's entry limit. Must be
	// positive.
	HotCapacity int
	// WarmCapacity is the file-backed warm tier's entry limit. Must be
	// positive; typical deployments size it 4–16× the hot tier.
	WarmCapacity int
	// Tolerance is the cache-wide similarity threshold τ on L2 distance
	// (per-entry tolerances from PutWithTolerance override it per line).
	// A warm lookup skips an entry on its in-memory key head and reads
	// the entry's record only when the head does not rule it out; below
	// 16 dimensions it reads every warm record.
	Tolerance float32
	// Policy is the eviction strategy. Under LRU a warm hit promotes the
	// entry back into the hot tier; under FIFO warm hits are served in
	// place (promotion would reorder the combined eviction sequence).
	Policy core.Policy
	// NewHot builds the hot tier. base carries the capacity, tolerance,
	// policy, and the demotion hook the tiered cache needs wired
	// in; implementations must honor all of them (passing base through to
	// core.NewFlat, or copying its fields into a variant's options — see
	// LSHHot). Nil means a flat hot tier, the only variant for which the
	// flat-equivalence property holds exactly.
	NewHot func(dim int, base core.Options) (core.TierCache, error)
	// Dir is where the warm tier's record file is created (os.TempDir()
	// when empty). The file is scratch, not persistence — cold restarts
	// go through snapshots.
	Dir string
	// Seed is ignored: the warm tier draws nothing at random, and an LSH
	// hot tier takes its seed from its own LSHOptions. It is kept so
	// callers that set it still compile.
	//proximity:allow deadfield item 4 deletes the tier; bench's zipf_tiered sets it
	Seed uint64
	// Telemetry, when set, records tier_warm_lookup / tier_promote /
	// tier_demote stage latencies. The tier reads the clock only when
	// it is set.
	Telemetry *telemetry.StageSet
}

// TieredCache composes a hot core cache over a warm file-backed store.
// It implements core.Cache, core.TierStatser, and io.Closer. All
// operations serialize on one mutex: the hot tier's own locks are
// uncontended below it, and the demotion hook (which fires under the hot
// tier's lock) only ever appends to a buffer owned by the same mutex.
type TieredCache struct {
	dim  int
	opts Options

	mu      sync.Mutex
	hot     core.TierCache
	warm    *warmStore
	pending []core.Entry // demotions handed over by the hot tier's OnEvict

	misses     int64
	warmHits   int64
	promotions int64
	demotions  int64
	discards   int64

	telem *telemetry.StageSet
}

var (
	_ core.Cache       = (*TieredCache)(nil)
	_ core.TierStatser = (*TieredCache)(nil)
)

// New creates a tiered cache for dim-dimensional embeddings.
func New(dim int, opts Options) (*TieredCache, error) {
	if opts.HotCapacity <= 0 {
		return nil, fmt.Errorf("tier: hot capacity must be positive, got %d", opts.HotCapacity)
	}
	if opts.WarmCapacity <= 0 {
		return nil, fmt.Errorf("tier: warm capacity must be positive, got %d", opts.WarmCapacity)
	}
	if opts.Policy == 0 {
		opts.Policy = core.FIFO
	}
	t := &TieredCache{dim: dim, opts: opts, telem: opts.Telemetry}
	base := core.Options{
		Capacity:  opts.HotCapacity,
		Tolerance: opts.Tolerance,
		Policy:    opts.Policy,
		OnEvict: func(e core.Entry) {
			// Runs under the hot tier's lock, which is only ever taken
			// while t.mu is held, so the buffer needs no extra locking.
			// The warm insert happens after the hot operation returns:
			// the hook must not re-enter the hot tier, and the warm
			// store may reuse record slots only once the hot tier has
			// finished cloning its own inputs.
			t.pending = append(t.pending, e)
		},
	}
	newHot := opts.NewHot
	if newHot == nil {
		newHot = func(dim int, base core.Options) (core.TierCache, error) {
			return core.NewFlat(dim, base)
		}
	}
	hot, err := newHot(dim, base)
	if err != nil {
		return nil, fmt.Errorf("tier: build hot tier: %w", err)
	}
	warm, err := newWarmStore(dim, opts.WarmCapacity, opts.Dir)
	if err != nil {
		if closer, ok := hot.(interface{ Close() error }); ok {
			closer.Close()
		}
		return nil, err
	}
	t.hot = hot
	t.warm = warm
	return t, nil
}

// LSHHot returns a NewHot factory building an LSH hot tier. LSH capacity
// is per-bucket (total 2^L·b), so opts.BucketCapacity is kept as given
// rather than overwritten with the tiered hot capacity; the
// flat-equivalence property does not hold for an LSH hot tier, which
// misses entries its probes don't reach.
func LSHHot(opts core.LSHOptions) func(dim int, base core.Options) (core.TierCache, error) {
	return func(dim int, base core.Options) (core.TierCache, error) {
		opts.Tolerance = base.Tolerance
		opts.Policy = base.Policy
		opts.OnEvict = base.OnEvict
		return core.NewLSH(dim, opts)
	}
}

// Get consults both tiers and serves the globally closest admissible
// entry: the hot candidate is fetched without side effects (TierGet),
// the warm tier is probed with the hot distance as the beat-this bound,
// and only the winner's bookkeeping runs. A warm win under LRU promotes
// the entry back into the hot tier, demoting the hot front if full. A
// nil or wrong-length query is an uncounted miss.
//
//proximity:hotpath
func (t *TieredCache) Get(q vec.Vector) ([]int, bool) {
	if len(q) != t.dim {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	hit, hotOK := t.hot.TierGet(q)
	bound := float32(math.Inf(1))
	if hotOK {
		bound = hit.Dist
	}
	start := t.now()
	s, _ := t.warm.lookup(q, bound)
	t.observe(telemetry.StageTierWarmLookup, start)
	if s >= 0 {
		t.warmHits++
		//proximity:allow hotpathalloc warm-hit docs copy; the warm path already paid a file read
		docs := append([]int(nil), t.warm.lines[s].docs...)
		if t.opts.Policy == core.LRU {
			t.promoteLocked(s)
		}
		return docs, true
	}
	if hotOK {
		hit.Commit()
		return hit.Docs, true
	}
	t.misses++
	return nil, false
}

// promoteLocked moves warm slot s into the hot tier: insert hot, which
// copies the key out of the slot's record view, then detach the slot —
// in that order, because remove overwrites the slot with the last
// record. If the hot tier is full its front demotes onto the warm back —
// the last-of-warm and first-of-hot positions are adjacent in the
// combined order, so the swap preserves it exactly as a flat LRU's
// MoveToBack would.
func (t *TieredCache) promoteLocked(s int) {
	start := t.now()
	t.hot.PutWithTolerance(t.warm.slotView(s), t.warm.lines[s].docs, t.warm.tols[s])
	t.warm.remove(s)
	t.drainPendingLocked()
	t.promotions++
	t.observe(telemetry.StageTierPromote, start)
}

// drainPendingLocked absorbs buffered hot-tier evictions into the warm
// tier. A full warm tier discards its oldest entry — the tiered cache's
// true eviction. The warm tier copies each key into its record file, so
// the key's buffer goes back to the hot tier for its next evicting Put.
func (t *TieredCache) drainPendingLocked() {
	for i, e := range t.pending {
		start := t.now()
		if t.warm.insert(e) {
			t.discards++
		}
		t.demotions++
		t.pending[i] = core.Entry{}
		t.hot.Recycle(e.Key)
		t.observe(telemetry.StageTierDemote, start)
	}
	t.pending = t.pending[:0]
}

// now reads the clock for a stage timing, or returns the zero Time when
// no telemetry is wired: the stage histograms are its only reader.
func (t *TieredCache) now() time.Time {
	if t.telem == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe records the time since start, taken by now, under stage.
func (t *TieredCache) observe(stage telemetry.Stage, start time.Time) {
	if t.telem != nil {
		t.telem.Observe(stage, time.Since(start))
	}
}

// Put caches the pair under the cache-wide tolerance.
func (t *TieredCache) Put(q vec.Vector, docs []int) {
	t.PutWithTolerance(q, docs, t.opts.Tolerance)
}

// PutWithTolerance inserts into the hot tier; a displaced hot entry
// demotes to the warm tier rather than being discarded. A nil or
// wrong-length key, and a negative or NaN tol, is ignored, and so is a
// key with a NaN or ±Inf component, which the hot tier refuses.
func (t *TieredCache) PutWithTolerance(q vec.Vector, docs []int, tol float32) {
	if len(q) != t.dim || !(tol >= 0) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hot.PutWithTolerance(q, docs, tol)
	t.drainPendingLocked()
}

// Len returns the total entries across both tiers.
func (t *TieredCache) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hot.Len() + t.warm.len()
}

// Capacity returns the combined capacity H+W.
func (t *TieredCache) Capacity() int {
	return t.opts.HotCapacity + t.opts.WarmCapacity
}

// Stats assembles combined counters so the tiered cache reads like the
// single cache it emulates: hits from either tier count as hits, only
// warm discards count as evictions (demotions are internal movement),
// and promotion re-inserts are subtracted from Puts. The Tier block
// breaks the same snapshot down by tier, so HotHits + WarmHits == Hits.
func (t *TieredCache) Stats() core.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	hs := t.hot.Stats()
	return core.Stats{
		Hits:      hs.Hits + t.warmHits,
		Misses:    t.misses,
		Puts:      hs.Puts - t.promotions,
		Evictions: t.discards,
		DistComps: hs.DistComps + t.warm.comps,
		HashOps:   hs.HashOps,
		Tier: &core.TierStats{
			HotEntries:   t.hot.Len(),
			HotCapacity:  t.hot.Capacity(),
			WarmEntries:  t.warm.len(),
			WarmCapacity: t.opts.WarmCapacity,
			WarmBytes:    t.warm.bytes(),
			HotHits:      hs.Hits,
			WarmHits:     t.warmHits,
			Promotions:   t.promotions,
			Demotions:    t.demotions,
			WarmDiscards: t.discards,
			WarmLookups:  t.warm.lookups,
			WarmScanned:  t.warm.scanned,
			WarmPruned:   t.warm.pruned,
		},
	}
}

// TierStats returns the Tier block of Stats.
func (t *TieredCache) TierStats() core.TierStats { return *t.Stats().Tier }

// Entries returns the combined contents in eviction order: warm (oldest)
// first, then hot — re-inserting them in order through an empty cache of
// capacity ≥ H+W reproduces contents and eviction sequence.
func (t *TieredCache) Entries() []core.Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(t.warm.entries(), t.hot.Entries()...)
}

// Clear drops all entries in both tiers (counters preserved).
func (t *TieredCache) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hot.Clear()
	t.pending = t.pending[:0]
	t.warm.clear()
}

// Close releases the warm tier's record file and mapping. The cache must
// not be used afterwards.
func (t *TieredCache) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.warm.close()
}
