package tier

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"proximity/internal/core"
	"proximity/internal/vec"
)

func mustTiered(t *testing.T, dim int, opts Options) *TieredCache {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	tc, err := New(dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tc.Close() })
	return tc
}

func mustFlat(t *testing.T, dim int, opts core.Options) *core.FlatCache {
	t.Helper()
	c, err := core.NewFlat(dim, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkGet(t *testing.T, tc *TieredCache, ref *core.FlatCache, q vec.Vector, op int) {
	t.Helper()
	gotDocs, gotOK := tc.Get(q)
	wantDocs, wantOK := ref.Get(q)
	if gotOK != wantOK {
		t.Fatalf("op %d: tiered Get ok = %v, flat reference = %v", op, gotOK, wantOK)
	}
	if len(gotDocs) != len(wantDocs) {
		t.Fatalf("op %d: tiered docs = %v, flat reference = %v", op, gotDocs, wantDocs)
	}
	for i := range gotDocs {
		if gotDocs[i] != wantDocs[i] {
			t.Fatalf("op %d: tiered docs = %v, flat reference = %v", op, gotDocs, wantDocs)
		}
	}
}

// compareState asserts the tiered cache and the flat reference hold the
// same entries in the same eviction order and agree on the externally
// visible counters, distance computations included: a warm lookup
// charges one per live entry, as the flat scan does.
func compareState(t *testing.T, tc *TieredCache, ref *core.FlatCache) {
	t.Helper()
	if tc.Len() != ref.Len() {
		t.Fatalf("Len: tiered %d, flat %d", tc.Len(), ref.Len())
	}
	got, want := tc.Entries(), ref.Entries()
	if len(got) != len(want) {
		t.Fatalf("Entries: tiered %d, flat %d", len(got), len(want))
	}
	for i := range got {
		if !vec.Equal(got[i].Key, want[i].Key) || got[i].Tol != want[i].Tol {
			t.Fatalf("entry %d diverged: tiered tol %v, flat tol %v", i, got[i].Tol, want[i].Tol)
		}
		if len(got[i].Docs) != len(want[i].Docs) {
			t.Fatalf("entry %d docs diverged", i)
		}
		for j := range got[i].Docs {
			if got[i].Docs[j] != want[i].Docs[j] {
				t.Fatalf("entry %d docs diverged", i)
			}
		}
	}
	gs, ws := tc.Stats(), ref.Stats()
	if gs.Hits != ws.Hits || gs.Misses != ws.Misses || gs.Puts != ws.Puts || gs.Evictions != ws.Evictions || gs.DistComps != ws.DistComps {
		t.Fatalf("stats diverged: tiered %+v, flat %+v", gs, ws)
	}
}

// runEquivalence drives an identical random workload through a tiered
// cache and a flat cache of the combined capacity, checking every lookup
// and the final state. The workload mixes inserts with near-duplicate
// queries (radius 0.5–1.5× the entry tolerance, so admission decisions
// sit on both sides of τ) and cold queries; draw makes keys and cold
// queries.
func runEquivalence(t *testing.T, tc *TieredCache, ref *core.FlatCache, dim, ops int, tol float32, rng *rand.Rand, draw func() vec.Vector) {
	t.Helper()
	var keys []vec.Vector
	for i := 0; i < ops; i++ {
		r := rng.Float64()
		switch {
		case r < 0.45 && len(keys) > 0:
			base := keys[rng.IntN(len(keys))]
			d := vec.RandomGaussian(rng, dim)
			radius := tol * float32(0.5+rng.Float64())
			q := vec.Add(base, vec.Scale(d, radius/vec.Norm(d)))
			checkGet(t, tc, ref, q, i)
		case r < 0.6:
			checkGet(t, tc, ref, draw(), i)
		default:
			k := draw()
			docs := []int{i, int(rng.IntN(1000))}
			etol := tol * float32(0.5+rng.Float64())
			tc.PutWithTolerance(k, docs, etol)
			ref.PutWithTolerance(k, docs, etol)
			keys = append(keys, k)
		}
	}
	compareState(t, tc, ref)
}

func testEquivalence(t *testing.T, policy core.Policy, seed uint64) {
	t.Helper()
	const (
		dim = 16
		H   = 32
		W   = 128
		tol = 1.5
		ops = 4000
	)
	tc := mustTiered(t, dim, Options{
		HotCapacity: H, WarmCapacity: W,
		Tolerance: tol, Policy: policy,
	})
	ref := mustFlat(t, dim, core.Options{
		Capacity: H + W, Tolerance: tol, Policy: policy,
	})
	rng := vec.NewRand(seed)
	runEquivalence(t, tc, ref, dim, ops, tol, rng, func() vec.Vector { return vec.Scale(vec.RandomGaussian(rng, dim), 2) })
}

func TestTieredEquivalenceFIFO(t *testing.T) { testEquivalence(t, core.FIFO, 1) }
func TestTieredEquivalenceLRU(t *testing.T)  { testEquivalence(t, core.LRU, 2) }

// The fallback IO path (ReadAt/WriteAt instead of mmap) must behave
// identically.
func TestTieredEquivalenceNoMmap(t *testing.T) {
	forceNoMmap = true
	defer func() { forceNoMmap = false }()
	testEquivalence(t, core.LRU, 4)
}

// On crowded unit-norm keys at dim 40 (two head blocks and an 8-float
// tail) — one cluster, every key about spread from every other — with τ
// near that spread, heads rule out at most a third of the warm keys, so
// the equivalence runs mostly through record reads and the bounded
// kernel's later checks, under mmap and under fallback IO. W = 99 ends
// a full warm tier in a three-head partial block past the heads' whole
// blocks of eight.
func TestTieredEquivalenceCrowded(t *testing.T) {
	const (
		dim    = 40
		H      = 16
		W      = 99
		spread = 0.15 // key–key distance
		tol    = 1.5 * spread
		ops    = 3000
	)
	for _, noMmap := range []bool{false, true} {
		for _, policy := range []core.Policy{core.FIFO, core.LRU} {
			t.Run(fmt.Sprintf("noMmap=%v/%v", noMmap, policy), func(t *testing.T) {
				forceNoMmap = noMmap
				defer func() { forceNoMmap = false }()
				tc := mustTiered(t, dim, Options{HotCapacity: H, WarmCapacity: W, Tolerance: tol, Policy: policy})
				ref := mustFlat(t, dim, core.Options{Capacity: H + W, Tolerance: tol, Policy: policy})
				rng := vec.NewRand(41)
				centre := vec.RandomUnit(rng, dim)
				sigma := float32(spread / math.Sqrt(2*dim))
				runEquivalence(t, tc, ref, dim, ops, tol, rng, func() vec.Vector {
					return vec.Normalize(vec.GaussianAround(rng, centre, sigma))
				})
				st := tc.TierStats()
				if st.WarmHits == 0 || st.WarmScanned < 2*st.WarmPruned {
					t.Fatalf("record path barely ran: %d warm hits, %d records read, %d ruled out on the head",
						st.WarmHits, st.WarmScanned, st.WarmPruned)
				}
			})
		}
	}
}

// Adversarial near-τ placement: every query sits at a controlled radius
// straddling the entry's exact tolerance, so any drift between the
// tiered admission decision and the flat one surfaces immediately.
func TestTieredEquivalenceAdversarialNearTau(t *testing.T) {
	for _, policy := range []core.Policy{core.FIFO, core.LRU} {
		t.Run(policy.String(), func(t *testing.T) {
			const (
				dim = 8
				H   = 8
				W   = 32
				tol = 1.0
				ops = 3000
			)
			tc := mustTiered(t, dim, Options{
				HotCapacity: H, WarmCapacity: W,
				Tolerance: tol, Policy: policy,
			})
			ref := mustFlat(t, dim, core.Options{
				Capacity: H + W, Tolerance: tol, Policy: policy,
			})
			rng := vec.NewRand(11)
			factors := []float32{0.9, 0.99, 0.999, 1.0, 1.001, 1.01, 1.1}
			type line struct {
				key vec.Vector
				tol float32
			}
			var lines []line
			for i := 0; i < ops; i++ {
				if rng.Float64() < 0.4 || len(lines) == 0 {
					k := vec.Scale(vec.RandomGaussian(rng, dim), 2)
					etol := tol * float32(0.5+rng.Float64())
					docs := []int{i}
					tc.PutWithTolerance(k, docs, etol)
					ref.PutWithTolerance(k, docs, etol)
					lines = append(lines, line{k, etol})
					continue
				}
				ln := lines[rng.IntN(len(lines))]
				f := factors[rng.IntN(len(factors))]
				d := vec.RandomGaussian(rng, dim)
				q := vec.Add(ln.key, vec.Scale(d, ln.tol*f/vec.Norm(d)))
				checkGet(t, tc, ref, q, i)
			}
			compareState(t, tc, ref)
		})
	}
}

// Directed promotion check: a warm hit under LRU moves the entry back
// into the hot tier, demoting the hot front to keep the combined order.
func TestTieredPromotionLRU(t *testing.T) {
	tc := mustTiered(t, 2, Options{HotCapacity: 1, WarmCapacity: 2, Tolerance: 1, Policy: core.LRU})
	a, b := vec.Vector{0, 0}, vec.Vector{10, 0}
	tc.Put(a, []int{1})
	tc.Put(b, []int{2}) // a demotes to warm
	st := tc.TierStats()
	if st.Demotions != 1 || st.WarmEntries != 1 || st.HotEntries != 1 {
		t.Fatalf("after fill: %+v", st)
	}
	if docs, ok := tc.Get(vec.Vector{0.5, 0}); !ok || docs[0] != 1 {
		t.Fatalf("warm hit = %v %v", docs, ok)
	}
	st = tc.TierStats()
	if st.WarmHits != 1 || st.Promotions != 1 || st.Demotions != 2 {
		t.Fatalf("after warm hit: %+v", st)
	}
	// a is hot again; b demoted.
	entries := tc.Entries()
	if len(entries) != 2 || !vec.Equal(entries[1].Key, a) || !vec.Equal(entries[0].Key, b) {
		t.Fatalf("order after promotion: %+v", entries)
	}
	// Combined counters read like a single cache: 1 hit, 2 puts, 0 evictions.
	if s := tc.Stats(); s.Hits != 1 || s.Puts != 2 || s.Evictions != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// Under FIFO a warm hit is served in place: promotion would reorder the
// combined eviction sequence.
func TestTieredFIFONoPromotion(t *testing.T) {
	tc := mustTiered(t, 2, Options{HotCapacity: 1, WarmCapacity: 2, Tolerance: 1, Policy: core.FIFO})
	a, b := vec.Vector{0, 0}, vec.Vector{10, 0}
	tc.Put(a, []int{1})
	tc.Put(b, []int{2})
	before := tc.Entries()
	if docs, ok := tc.Get(vec.Vector{0.5, 0}); !ok || docs[0] != 1 {
		t.Fatalf("warm hit = %v %v", docs, ok)
	}
	st := tc.TierStats()
	if st.WarmHits != 1 || st.Promotions != 0 {
		t.Fatalf("FIFO warm hit should not promote: %+v", st)
	}
	after := tc.Entries()
	for i := range before {
		if !vec.Equal(before[i].Key, after[i].Key) {
			t.Fatal("FIFO warm hit reordered entries")
		}
	}
}

// The warm discard is the tiered cache's true eviction: filling past
// H+W drops the globally oldest entry.
func TestTieredWarmDiscard(t *testing.T) {
	tc := mustTiered(t, 1, Options{HotCapacity: 2, WarmCapacity: 2, Tolerance: 0.1, Policy: core.FIFO})
	for i := 0; i < 5; i++ {
		tc.Put(vec.Vector{float32(10 * i)}, []int{i})
	}
	if tc.Len() != 4 {
		t.Fatalf("Len = %d", tc.Len())
	}
	if _, ok := tc.Get(vec.Vector{0}); ok {
		t.Fatal("oldest entry should have been discarded")
	}
	s := tc.Stats()
	if s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}
	st := tc.TierStats()
	if st.WarmDiscards != 1 || st.Demotions != 3 {
		t.Fatalf("tier stats = %+v", st)
	}
}

func TestTieredSnapshotRoundTrip(t *testing.T) {
	const (
		dim = 12
		H   = 16
		W   = 64
		tol = 1.2
	)
	dir := t.TempDir()
	opts := Options{HotCapacity: H, WarmCapacity: W, Tolerance: tol, Policy: core.LRU, Dir: dir}
	tc := mustTiered(t, dim, opts)
	rng := vec.NewRand(9)
	var keys []vec.Vector
	for i := 0; i < 200; i++ {
		k := vec.Scale(vec.RandomGaussian(rng, dim), 2)
		tc.PutWithTolerance(k, []int{i}, tol*float32(0.5+rng.Float64()))
		keys = append(keys, k)
	}
	before := tc.Entries()

	path := filepath.Join(dir, "tiered.snap")
	if err := core.SaveSnapshot(path, dim, tc); err != nil {
		t.Fatal(err)
	}
	restored := mustTiered(t, dim, opts)
	n, err := core.LoadSnapshot(path, dim, restored)
	if err != nil {
		t.Fatal(err)
	}
	after := restored.Entries()
	if n != len(before) || len(after) != len(before) {
		t.Fatalf("restored %d entries (%d replayed), want %d", len(after), n, len(before))
	}
	for i := range before {
		if !vec.Equal(before[i].Key, after[i].Key) || before[i].Tol != after[i].Tol {
			t.Fatalf("entry %d diverged after restart", i)
		}
	}
	// The replay is counted as the Puts it made, and as the demotions
	// that re-layered it: all but the youngest H entries moved down once.
	if s := restored.Stats(); s.Puts != int64(n) || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("restored stats = %+v, want %d Puts", s, n)
	}
	if st := restored.TierStats(); st.Demotions != int64(n-H) || st.HotHits != 0 {
		t.Fatalf("restored tier stats = %+v, want %d demotions", st, n-H)
	}
	// Both caches answer identically post-restart.
	for i := 0; i < 100; i++ {
		base := keys[rng.IntN(len(keys))]
		d := vec.RandomGaussian(rng, dim)
		q := vec.Add(base, vec.Scale(d, tol*float32(0.3+rng.Float64())/vec.Norm(d)))
		d1, ok1 := tc.Get(q)
		d2, ok2 := restored.Get(q)
		if ok1 != ok2 || (ok1 && d1[0] != d2[0]) {
			t.Fatalf("query %d: original %v %v, restored %v %v", i, d1, ok1, d2, ok2)
		}
	}
}

// Saving over an existing snapshot is atomic: the temp file is renamed
// into place and never left behind.
func TestTieredSnapshotAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	tc := mustTiered(t, 4, Options{HotCapacity: 4, WarmCapacity: 4, Tolerance: 1})
	tc.Put(vec.Vector{1, 2, 3, 4}, []int{1})
	if err := core.SaveSnapshot(path, 4, tc); err != nil {
		t.Fatal(err)
	}
	tc.Put(vec.Vector{5, 6, 7, 8}, []int{2})
	if err := core.SaveSnapshot(path, 4, tc); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.Contains(f.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", f.Name())
		}
	}
	restored := mustTiered(t, 4, Options{HotCapacity: 4, WarmCapacity: 4, Tolerance: 1})
	if _, err := core.LoadSnapshot(path, 4, restored); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 {
		t.Fatalf("restored Len = %d, want 2", restored.Len())
	}
}

func TestTieredLoadSnapshotVersionError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.snap")
	if err := os.WriteFile(path, append([]byte("PXSNAP"), 0xFF, 0, 0, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	tc := mustTiered(t, 4, Options{HotCapacity: 2, WarmCapacity: 2, Tolerance: 1})
	if _, err := core.LoadSnapshot(path, 4, tc); !errors.Is(err, core.ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
}

// An LSH hot tier composes: demotions flow from its bucket evictions
// into the warm tier.
func TestLSHHotSmoke(t *testing.T) {
	const dim = 8
	tc := mustTiered(t, dim, Options{
		HotCapacity: 16, WarmCapacity: 64, Tolerance: 1.5, Policy: core.FIFO,
		NewHot: LSHHot(core.LSHOptions{Bits: 4, BucketCapacity: 4, Probes: 3, Seed: 3}),
	})
	rng := vec.NewRand(17)
	for i := 0; i < 120; i++ {
		tc.Put(vec.Scale(vec.RandomGaussian(rng, dim), 2), []int{i})
	}
	st := tc.TierStats()
	if st.Demotions == 0 {
		t.Fatalf("LSH hot tier did not demote: %+v", st)
	}
	if tc.Len() != st.HotEntries+st.WarmEntries {
		t.Fatalf("Len %d != hot %d + warm %d", tc.Len(), st.HotEntries, st.WarmEntries)
	}
}

// The warm slots stay dense and within capacity: a discard or a removal
// moves the last slot's record, head, tolerance and documents into the
// hole, and the age order survives the move.
func TestWarmSlotReuse(t *testing.T) {
	const (
		dim       = 20 // a 16-float head and a 4-float tail
		capacity  = 4
		maxBlocks = (capacity + vec.BlockRows - 1) / vec.BlockRows
	)
	for _, noMmap := range []bool{false, true} {
		t.Run(fmt.Sprintf("noMmap=%v", noMmap), func(t *testing.T) {
			forceNoMmap = noMmap
			defer func() { forceNoMmap = false }()
			w, err := newWarmStore(dim, capacity, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			rng := vec.NewRand(21)
			var want []core.Entry
			discards := 0
			for i := 0; i < 10; i++ {
				e := core.Entry{Key: vec.RandomGaussian(rng, dim), Docs: []int{i}, Tol: float32(i)}
				want = append(want, core.Entry{Key: vec.Clone(e.Key), Docs: []int{i}, Tol: e.Tol})
				if w.insert(e) {
					discards++
				}
				if w.len() > capacity || cap(w.tols) > capacity || cap(w.lines) > capacity || w.heads.Blocks() > maxBlocks {
					t.Fatalf("insert %d: %d slots (capacity %d/%d, %d head blocks) despite capacity %d (%d blocks)",
						i, w.len(), cap(w.tols), cap(w.lines), w.heads.Blocks(), capacity, maxBlocks)
				}
			}
			want = want[len(want)-capacity:]
			if discards != 6 {
				t.Fatalf("discards = %d, want 6", discards)
			}
			if got := w.bytes(); got != capacity*dim*4 {
				t.Fatalf("bytes = %d", got)
			}
			checkWarm(t, w, want)

			// Remove a middle slot, as a promotion does: the last slot
			// moves into it.
			s, _ := w.lookup(want[1].Key, float32(math.Inf(1)))
			if s < 0 || s == w.len()-1 {
				t.Fatalf("entry 1 sits in slot %d; the test needs a middle slot", s)
			}
			w.remove(s)
			want = append(want[:1], want[2:]...)
			checkWarm(t, w, want)
		})
	}
}

// checkWarm asserts w holds want in age order, and that each entry's
// head and record agree: a lookup of its key finds it at distance 0.
func checkWarm(t *testing.T, w *warmStore, want []core.Entry) {
	t.Helper()
	got := w.entries()
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if !vec.Equal(got[i].Key, want[i].Key) || got[i].Tol != want[i].Tol || got[i].Docs[0] != want[i].Docs[0] {
			t.Fatalf("entry %d: docs %v tol %v, want docs %v tol %v", i, got[i].Docs, got[i].Tol, want[i].Docs, want[i].Tol)
		}
		s, d := w.lookup(want[i].Key, float32(math.Inf(1)))
		if s < 0 || d != 0 || w.heads.Row(s) != [vec.HeadLen]float32(want[i].Key) {
			t.Fatalf("entry %d: lookup of its own key gave slot %d at %v", i, s, d)
		}
	}
}

// A NaN τ is refused at construction, and a NaN per-line tolerance is
// ignored like a negative one.
func TestTieredRefusesNaNTolerance(t *testing.T) {
	nan := float32(math.NaN())
	if _, err := New(2, Options{HotCapacity: 2, WarmCapacity: 2, Tolerance: nan, Dir: t.TempDir()}); err == nil {
		t.Fatal("a NaN τ was accepted")
	}
	tc := mustTiered(t, 2, Options{HotCapacity: 2, WarmCapacity: 2, Tolerance: 1})
	tc.PutWithTolerance(vec.Vector{1, 1}, []int{1}, nan)
	tc.PutWithTolerance(vec.Vector{1, 1}, []int{1}, -1)
	if tc.Len() != 0 {
		t.Fatalf("Len = %d after puts with NaN and negative tolerances", tc.Len())
	}
}

func TestTieredClear(t *testing.T) {
	tc := mustTiered(t, 2, Options{HotCapacity: 2, WarmCapacity: 2, Tolerance: 1})
	for i := 0; i < 4; i++ {
		tc.Put(vec.Vector{float32(10 * i), 0}, []int{i})
	}
	tc.Clear()
	if tc.Len() != 0 {
		t.Fatalf("Len after Clear = %d", tc.Len())
	}
	if _, ok := tc.Get(vec.Vector{0, 0}); ok {
		t.Fatal("Get hit after Clear")
	}
	tc.Put(vec.Vector{1, 1}, []int{9})
	if docs, ok := tc.Get(vec.Vector{1, 1}); !ok || docs[0] != 9 {
		t.Fatalf("reuse after Clear = %v %v", docs, ok)
	}
}

// The warm tier's head pruning must actually engage on near-duplicate
// traffic: a hot-path lookup rules warm keys out on their in-memory heads
// instead of reading their records.
func TestWarmPruningEngages(t *testing.T) {
	const (
		dim = 32
		H   = 50
		W   = 400
		tol = 0.8
	)
	tc := mustTiered(t, dim, Options{HotCapacity: H, WarmCapacity: W, Tolerance: tol, Policy: core.LRU})
	rng := vec.NewRand(31)
	var keys []vec.Vector
	for i := 0; i < H+W; i++ {
		k := vec.Scale(vec.RandomGaussian(rng, dim), 2)
		tc.Put(k, []int{i})
		keys = append(keys, k)
	}
	// Hot-resident near-duplicates: the hot tier answers, and its small
	// distance shrinks the warm window to near nothing.
	for i := 0; i < 200; i++ {
		base := keys[len(keys)-1-rng.IntN(H/2)]
		d := vec.RandomGaussian(rng, dim)
		q := vec.Add(base, vec.Scale(d, tol*0.2/vec.Norm(d)))
		if _, ok := tc.Get(q); !ok {
			t.Fatalf("hot near-duplicate %d missed", i)
		}
	}
	st := tc.TierStats()
	if st.WarmLookups == 0 {
		t.Fatal("warm tier never consulted")
	}
	if st.WarmScanned+st.WarmPruned != st.WarmLookups*W {
		t.Fatalf("%d read + %d ruled out on the head over %d lookups of %d warm entries",
			st.WarmScanned, st.WarmPruned, st.WarmLookups, W)
	}
	scannedPerLookup := float64(st.WarmScanned) / float64(st.WarmLookups)
	if scannedPerLookup > float64(W)/4 {
		t.Fatalf("pruning ineffective: %.1f of %d warm vectors read per lookup (pruned %d)",
			scannedPerLookup, W, st.WarmPruned)
	}
}
