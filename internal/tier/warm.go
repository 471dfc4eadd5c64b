package tier

import (
	"container/list"
	"fmt"
	"os"
	"sort"
	"unsafe"

	"proximity/internal/core"
	"proximity/internal/vec"
)

// The warm tier holds demoted entries without keeping their vectors on
// the heap: keys live in a fixed-record scratch file (one dim·4-byte
// record per entry) that is memory-mapped where the platform allows it,
// while only the small per-entry directory — documents, tolerance, slot
// number, and a handful of pivot distances — stays in memory. At dim 768
// that is ~3 KB of vector per entry moved out of the Go heap, which is
// what lets the warm tier be 16× the hot tier without 16× the memory.
//
// Lookups must stay cheap even though the vectors are out of reach: the
// directory is kept sorted by each key's distance to the origin (its
// norm, pivot 0), so a query with admissibility threshold t only needs
// the window of entries whose norm lies within t of the query's norm —
// everything outside the window is skipped by binary search without
// touching the record file. Entries inside the window are then tested
// against three more fixed random pivots: by the triangle inequality
// |d(q,p) − d(key,p)| lower-bounds d(q,key), so a window survivor whose
// bound already exceeds its tolerance (or the best distance so far) is
// pruned before its vector is read. Only the handful of survivors cost a
// record read and an exact distance. This pruning is valid for L2 only;
// other metrics fall back to an exact scan of the warm set.

// numPivots is the number of reference points per entry: the origin
// (whose distance doubles as the sort key) plus three seeded Gaussian
// pivots.
const numPivots = 4

// forceNoMmap routes vector IO through ReadAt/WriteAt even where mmap is
// available; tests use it to cover the fallback path on unix.
var forceNoMmap = false

// warmEntry is one directory record. The key vector itself lives in the
// record file at slot; pd caches its distance to each pivot.
type warmEntry struct {
	docs []int
	tol  float32
	slot int
	pd   [numPivots]float32
	elem *list.Element // position in age order; Value is *warmEntry
}

type warmStore struct {
	dim      int
	capacity int
	metric   vec.Metric
	dist     vec.DistanceFunc

	origin vec.Vector                // all-zero reference for pd[0]
	pivots [numPivots - 1]vec.Vector // seeded Gaussian references

	f        *os.File
	data     []byte // mmap view of the record file; nil under fallback IO
	scratchB []byte // fallback byte buffer, one record
	scratchF []float32

	dir []*warmEntry // sorted ascending by pd[0]
	// pds mirrors dir's pivot distances in one contiguous block: the
	// lookup window walks pds and only dereferences a dir entry once a
	// candidate survives the cheap bounds, so a pruned candidate costs a
	// few sequential float reads instead of a pointer chase per entry.
	pds    [][numPivots]float32
	age    *list.List // front = oldest = next to discard
	free   []int      // recycled record slots
	next   int        // next never-used slot
	maxTol float32    // monotone upper bound over inserted tolerances

	// Counters (reported through TierStats).
	lookups int64 // lookups that consulted a non-empty warm tier
	scanned int64 // vectors read and exactly compared
	pruned  int64 // entries skipped by the norm window or pivot bounds
	comps   int64 // distance computations (pivot projections + exact reads)
}

// newWarmStore creates the record file (capacity·dim·4 bytes, sparse
// until written) in dir, or os.TempDir() when dir is empty. On unix the
// file is unlinked immediately so a crash cannot leak it.
func newWarmStore(dim, capacity int, metric vec.Metric, dir string, seed uint64) (*warmStore, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("tier: dimension must be positive, got %d", dim)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("tier: warm capacity must be positive, got %d", capacity)
	}
	if dir == "" {
		dir = os.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tier: create warm dir: %w", err)
	}
	f, err := os.CreateTemp(dir, "proximity-warm-*.dat")
	if err != nil {
		return nil, fmt.Errorf("tier: create warm record file: %w", err)
	}
	unlinkOpenFile(f)
	size := capacity * dim * 4
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, fmt.Errorf("tier: size warm record file: %w", err)
	}
	w := &warmStore{
		dim:      dim,
		capacity: capacity,
		metric:   metric,
		dist:     metric.Func(),
		origin:   make(vec.Vector, dim),
		f:        f,
		age:      list.New(),
	}
	if mmapSupported && !forceNoMmap {
		data, err := mmapFile(f, size)
		if err == nil {
			w.data = data
		}
		// On mmap failure fall through to file IO rather than erroring:
		// the store works either way, just slower.
	}
	if w.data == nil {
		w.scratchB = make([]byte, dim*4)
		w.scratchF = floatView(w.scratchB, dim)
	}
	if metric == vec.L2Distance {
		rng := vec.NewRand(seed)
		for i := range w.pivots {
			w.pivots[i] = vec.RandomGaussian(rng, dim)
		}
	}
	return w, nil
}

// floatView reinterprets b as float32s without copying. The bytes come
// from either an mmap (page-aligned) or a heap make (8-byte aligned), so
// the 4-byte alignment float32 needs always holds. The view is native-
// endian scratch, never an interchange format.
func floatView(b []byte, n int) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}

func (w *warmStore) len() int { return len(w.dir) }

// bytes reports the vector bytes resident in the record file.
func (w *warmStore) bytes() int64 { return int64(len(w.dir)) * int64(w.dim) * 4 }

// writeSlot stores key into the record file at slot.
func (w *warmStore) writeSlot(slot int, key vec.Vector) {
	if w.data != nil {
		copy(floatView(w.data[slot*w.dim*4:], w.dim), key)
		return
	}
	copy(w.scratchF, key)
	if _, err := w.f.WriteAt(w.scratchB, int64(slot)*int64(w.dim)*4); err != nil {
		// The file was pre-sized at construction; a write failure here
		// means the scratch volume died under us.
		panic(fmt.Sprintf("tier: warm record write: %v", err))
	}
}

// slotView returns the vector stored at slot. Under mmap it aliases the
// mapping (valid until the slot is rewritten); under fallback IO it
// aliases the shared scratch buffer (valid until the next read/write).
// Callers that retain the vector must clone it.
func (w *warmStore) slotView(slot int) vec.Vector {
	if w.data != nil {
		return floatView(w.data[slot*w.dim*4:], w.dim)
	}
	if _, err := w.f.ReadAt(w.scratchB, int64(slot)*int64(w.dim)*4); err != nil {
		panic(fmt.Sprintf("tier: warm record read: %v", err))
	}
	return w.scratchF
}

// readKey returns a caller-owned copy of e's vector.
func (w *warmStore) readKey(e *warmEntry) vec.Vector {
	return vec.Clone(w.slotView(e.slot))
}

// pdOf computes v's distance to each pivot (L2 only).
func (w *warmStore) pdOf(v vec.Vector) [numPivots]float32 {
	var pd [numPivots]float32
	pd[0] = w.dist(v, w.origin)
	for i, p := range w.pivots {
		pd[i+1] = w.dist(v, p)
	}
	return pd
}

// insert appends e as the youngest warm entry, discarding the oldest
// first when full (reported via the return so the caller can count it as
// the tiered cache's true eviction). The entry's slices are retained
// without copying — insert is the receiving end of the demotion hook's
// ownership transfer.
func (w *warmStore) insert(e core.Entry) (discarded bool) {
	if len(w.dir) >= w.capacity {
		oldest, ok := w.age.Front().Value.(*warmEntry)
		if !ok {
			panic(fmt.Sprintf("tier: unexpected age list element %T", w.age.Front().Value))
		}
		w.remove(oldest)
		discarded = true
	}
	var slot int
	if n := len(w.free); n > 0 {
		slot = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		slot = w.next
		w.next++
	}
	w.writeSlot(slot, e.Key)
	we := &warmEntry{docs: e.Docs, tol: e.Tol, slot: slot}
	if w.metric == vec.L2Distance {
		we.pd = w.pdOf(e.Key)
	}
	i := sort.Search(len(w.dir), func(i int) bool { return w.pds[i][0] > we.pd[0] })
	w.dir = append(w.dir, nil)
	copy(w.dir[i+1:], w.dir[i:])
	w.dir[i] = we
	w.pds = append(w.pds, [numPivots]float32{})
	copy(w.pds[i+1:], w.pds[i:])
	w.pds[i] = we.pd
	we.elem = w.age.PushBack(we)
	if e.Tol > w.maxTol {
		// Monotone: removals never lower it. Only ever too wide, which
		// keeps the lookup window conservative but always correct.
		w.maxTol = e.Tol
	}
	return discarded
}

// remove detaches e from the directory, the age order, and recycles its
// record slot. The slot's bytes stay until reused, which is fine: only
// directory entries are ever read.
func (w *warmStore) remove(e *warmEntry) {
	w.age.Remove(e.elem)
	i := sort.Search(len(w.dir), func(i int) bool { return w.pds[i][0] >= e.pd[0] })
	for ; i < len(w.dir) && w.dir[i] != e; i++ {
	}
	if i == len(w.dir) {
		panic("tier: warm entry missing from directory")
	}
	w.dir = append(w.dir[:i], w.dir[i+1:]...)
	w.pds = append(w.pds[:i], w.pds[i+1:]...)
	w.free = append(w.free, e.slot)
}

// lookup returns the warm entry closest to q among those admissible
// (d ≤ entry tolerance) and strictly better than bound — the hot tier's
// best distance, or +Inf when the hot tier missed. Equal distances lose
// to the hot tier, mirroring a flat scan's first-seen tie-break.
func (w *warmStore) lookup(q vec.Vector, bound float32) (best *warmEntry, bestD float32, ok bool) {
	if len(w.dir) == 0 {
		return nil, 0, false
	}
	w.lookups++
	if w.metric != vec.L2Distance {
		// No triangle inequality to prune with: exact scan.
		for _, e := range w.dir {
			d := w.dist(q, w.slotView(e.slot))
			w.scanned++
			w.comps++
			if d <= e.tol && d < bound && (best == nil || d < bestD) {
				best, bestD = e, d
			}
		}
		return best, bestD, best != nil
	}
	qpd := w.pdOf(q)
	w.comps += numPivots
	// A winning entry must satisfy d ≤ min(maxTol, bound), and d is at
	// least the norm gap |qpd[0] − pd[0]|, so only the sorted window
	// within thr of the query's norm can contain one.
	thr := w.maxTol
	if bound < thr {
		thr = bound
	}
	lo := sort.Search(len(w.dir), func(i int) bool { return w.pds[i][0] >= qpd[0]-thr })
	hi := sort.Search(len(w.dir), func(i int) bool { return w.pds[i][0] > qpd[0]+thr })
	w.pruned += int64(len(w.dir) - (hi - lo))
	for i := lo; i < hi; i++ {
		pd := &w.pds[i]
		lb := qpd[0] - pd[0]
		if lb < 0 {
			lb = -lb
		}
		for p := 1; p < numPivots && lb < thr; p++ {
			g := qpd[p] - pd[p]
			if g < 0 {
				g = -g
			}
			if g > lb {
				lb = g
			}
		}
		// d ≥ lb, so the entry cannot win if the bound already rules out
		// beating the hot tier (lb ≥ bound), the best warm candidate so
		// far (lb ≥ bestD), or admissibility (lb > tol; lb ≥ thr ≥ maxTol
		// covers it when the pivot loop exited early).
		if lb >= bound || (best != nil && lb >= bestD) {
			w.pruned++
			continue
		}
		e := w.dir[i]
		if lb > e.tol {
			w.pruned++
			continue
		}
		// The same three limits bound the exact distance: the kernel
		// abandons the record once its partial sum passes the smallest.
		maxDist := min(e.tol, bound)
		if best != nil {
			maxDist = min(maxDist, bestD)
		}
		d, ok := vec.L2Bounded(q, w.slotView(e.slot), maxDist)
		w.scanned++
		w.comps++
		if ok && d <= e.tol && d < bound && (best == nil || d < bestD) {
			best, bestD = e, d
		}
	}
	return best, bestD, best != nil
}

// entries returns caller-owned copies of the warm contents in eviction
// order (oldest first). O(W·d).
func (w *warmStore) entries() []core.Entry {
	out := make([]core.Entry, 0, len(w.dir))
	for el := w.age.Front(); el != nil; el = el.Next() {
		e, ok := el.Value.(*warmEntry)
		if !ok {
			panic(fmt.Sprintf("tier: unexpected age list element %T", el.Value))
		}
		out = append(out, core.Entry{
			Key:  w.readKey(e),
			Docs: append([]int(nil), e.docs...),
			Tol:  e.tol,
		})
	}
	return out
}

// clear drops all entries. Counters and the record file are preserved;
// slots restart from zero.
func (w *warmStore) clear() {
	w.dir = nil
	w.pds = nil
	w.age.Init()
	w.free = nil
	w.next = 0
	w.maxTol = 0
}

// close releases the mapping and the record file. On platforms where the
// file could not be unlinked at open it is removed here.
func (w *warmStore) close() error {
	var err error
	if w.data != nil {
		err = munmapFile(w.data)
		w.data = nil
	}
	name := w.f.Name()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	os.Remove(name) // already unlinked on unix; ENOENT is fine
	return err
}
