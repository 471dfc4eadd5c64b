package tier

import (
	"fmt"
	"math"
	"os"
	"unsafe"

	"proximity/internal/core"
	"proximity/internal/vec"
)

// The warm tier holds demoted entries without keeping their vectors on
// the heap: keys live in a fixed-record scratch file (one dim·4-byte
// record per entry) that is memory-mapped where the platform allows it.
// At dim 768 that is ~3 KB of vector per entry moved out of the Go heap,
// which is what lets the warm tier be 16× the hot tier without 16× the
// memory.
//
// What stays in memory is laid out as FlatCache's lines are: parallel
// arrays indexed by slot, slots 0..len()-1 live, and record s of the file
// is slot s's key. Each key's first vec.HeadLen floats sit in a
// vec.Heads (64 B per entry, 60 KB at W = 960, block-major in blocks of
// eight entries), beside the tolerances, each tolerance's
// vec.SquaredBound, and the rest of each line (documents and age-order
// links). A lookup hands the bounds to the heads' Next, which tests
// eight heads at a time in slot order, and reads a record only when its
// head alone does not rule the key out, so a lookup costs one dense scan
// plus a record read per close key. Removing an entry moves the last
// slot, record and head included, into its place, so the slots and the
// file stay dense. Below vec.HeadLen dimensions a lookup reads every
// record.

// forceNoMmap routes vector IO through ReadAt/WriteAt even where mmap is
// available; tests use it to cover the fallback path on unix.
var forceNoMmap = false

// warmLine is the part of a warm entry a lookup reads only to serve,
// move or enumerate it.
type warmLine struct {
	docs       []int
	prev, next int32 // neighbours in age order; noSlot past either end
}

const noSlot int32 = -1

type warmStore struct {
	dim      int
	capacity int

	f        *os.File
	data     []byte // mmap view of the record file; nil under fallback IO
	scratchB []byte // fallback byte buffer, one record
	scratchF []float32

	heads       vec.Heads // slot s's first vec.HeadLen floats; none below that dimension
	tols        []float32 // slot s's tolerance
	bounds      []float32 // vec.SquaredBound(tols[s]), what slot s's head is tested against
	lines       []warmLine
	front, back int32 // ends of the age order: front is the oldest, next to discard

	// Counters (reported through TierStats).
	lookups int64 // lookups that consulted a non-empty warm tier
	scanned int64 // records read and compared
	pruned  int64 // entries ruled out on their head, without a record read
	comps   int64 // distance computations: one per live entry per lookup, as a FLAT scan charges
}

// newWarmStore creates the record file (capacity·dim·4 bytes, sparse
// until written) in dir, or os.TempDir() when dir is empty. On unix the
// file is unlinked immediately so a crash cannot leak it.
func newWarmStore(dim, capacity int, dir string) (*warmStore, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("tier: dimension must be positive, got %d", dim)
	}
	if capacity <= 0 || capacity > math.MaxInt32 {
		return nil, fmt.Errorf("tier: warm capacity must be in [1, 2³¹), got %d", capacity)
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
		f:        f,
		heads:    vec.NewHeads(dim, capacity),
		front:    noSlot,
		back:     noSlot,
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
	return w, nil
}

// floatView reinterprets b as float32s without copying. The bytes come
// from either an mmap (page-aligned) or a heap make (8-byte aligned), so
// the 4-byte alignment float32 needs always holds. The view is native-
// endian scratch, never an interchange format.
func floatView(b []byte, n int) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}

func (w *warmStore) len() int { return len(w.tols) }

// bytes reports the vector bytes resident in the record file.
func (w *warmStore) bytes() int64 { return int64(len(w.tols)) * int64(w.dim) * 4 }

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

// insert appends e as the youngest warm entry, discarding the oldest
// first when full (reported via the return so the caller can count it as
// the tiered cache's true eviction). The entry's documents are retained
// without copying — insert is the receiving end of the demotion hook's
// ownership transfer — and its key is copied into the record file.
func (w *warmStore) insert(e core.Entry) (discarded bool) {
	if len(w.tols) >= w.capacity {
		w.remove(int(w.front))
		discarded = true
	}
	s := len(w.tols)
	w.writeSlot(s, e.Key)
	w.heads.Set(s, e.Key)
	w.tols = appendSlot(w.tols, w.capacity, e.Tol)
	w.bounds = appendSlot(w.bounds, w.capacity, vec.SquaredBound(e.Tol))
	w.lines = appendSlot(w.lines, w.capacity, warmLine{docs: e.Docs})
	w.link(w.back, int32(s))
	w.link(int32(s), noSlot)
	return discarded
}

// appendSlot appends one slot's element to s, growing its backing
// array by doubling but never past limit slots, so a full warm tier
// holds exactly its capacity and an empty one nothing.
func appendSlot[T any](s []T, limit int, x T) []T {
	if len(s) == cap(s) {
		grown := make([]T, len(s), min(max(2*cap(s), 1), limit))
		copy(grown, s)
		s = grown
	}
	return append(s, x)
}

// remove detaches slot s from the age order and moves the last slot —
// record, head, tolerance, bound and line — into its place.
func (w *warmStore) remove(s int) {
	ln := w.lines[s]
	w.link(ln.prev, ln.next)
	n := len(w.tols) - 1
	if s != n {
		w.writeSlot(s, w.slotView(n))
		w.heads.Move(s, n)
		w.tols[s], w.bounds[s], w.lines[s] = w.tols[n], w.bounds[n], w.lines[n]
		w.link(w.lines[s].prev, int32(s))
		w.link(int32(s), w.lines[s].next)
	}
	w.lines[n] = warmLine{}
	w.tols, w.bounds, w.lines = w.tols[:n], w.bounds[:n], w.lines[:n]
}

// link makes slot n follow slot p in the age order; noSlot for p or n
// stands for the front or the back end.
func (w *warmStore) link(p, n int32) {
	if p == noSlot {
		w.front = n
	} else {
		w.lines[p].next = n
	}
	if n == noSlot {
		w.back = p
	} else {
		w.lines[n].prev = p
	}
}

// lookup returns the slot of the warm entry closest to q among those
// admissible (d ≤ entry tolerance) and strictly better than bound — the
// hot tier's best distance, or +Inf when the hot tier missed — or -1.
// Equal distances lose to the hot tier, mirroring a flat scan's
// first-seen tie-break; among warm entries the first in slot order wins.
//
// An entry wins only with d below all three of its tolerance, bound and
// the best so far, so the kernel abandons its record once the partial
// sum passes the smallest. The heads' Next skips every entry whose head
// sum exceeds its own bound or limit — SquaredBound of the best so far,
// or of bound before any — without reading its record; SquaredBound
// being monotone, that is exactly where vec.L2Bounded would abandon at
// its first check. The result is the unbounded scan's, bit for bit.
//
//proximity:hotpath
func (w *warmStore) lookup(q vec.Vector, bound float32) (best int, bestD float32) {
	best = -1
	n := len(w.tols)
	if n == 0 {
		return best, 0
	}
	w.lookups++
	w.comps += int64(n)
	read := 0
	limit := vec.SquaredBound(bound)
	var cur vec.HeadCursor
	for s := 0; s < n; s++ {
		if s = w.heads.Next(&cur, q, w.bounds, s, limit); s == n {
			break
		}
		tol := w.tols[s]
		maxDist := min(tol, bound)
		if best >= 0 {
			maxDist = min(maxDist, bestD)
		}
		read++
		if d, ok := vec.L2Bounded(q, w.slotView(s), maxDist); ok && d <= tol && d < bound && (best < 0 || d < bestD) {
			best, bestD = s, d
			limit = vec.SquaredBound(d)
		}
	}
	w.scanned += int64(read)
	w.pruned += int64(n - read)
	return best, bestD
}

// entries returns caller-owned copies of the warm contents in eviction
// order (oldest first). O(W·d).
func (w *warmStore) entries() []core.Entry {
	out := make([]core.Entry, 0, len(w.tols))
	for s := w.front; s != noSlot; s = w.lines[s].next {
		out = append(out, core.Entry{
			Key:  vec.Clone(w.slotView(int(s))),
			Docs: append([]int(nil), w.lines[s].docs...),
			Tol:  w.tols[s],
		})
	}
	return out
}

// clear drops all entries and their in-memory storage. Counters and the
// record file are preserved; slots restart from zero.
func (w *warmStore) clear() {
	w.heads.Reset()
	w.tols, w.bounds, w.lines = nil, nil, nil
	w.front, w.back = noSlot, noSlot
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
