package vec

import (
	"math"
	"slices"
)

// Scored pairs an item identifier with its distance to some query.
type Scored struct {
	ID   int
	Dist float32
}

// TopK selects the k closest items from the given scored slice, returned
// sorted ascending by distance (ties broken by ascending ID so results are
// deterministic across runs). The input slice is not modified. If k exceeds
// len(items), all items are returned.
//
// The selection uses a bounded max-heap: O(n log k), which matters for the
// over-fetching path where the vector database retrieves ρ·k neighbors
// (§3.3.4) and the cache re-ranks them per hit.
func TopK(items []Scored, k int) []Scored {
	if k <= 0 {
		return nil
	}
	if k >= len(items) {
		out := make([]Scored, len(items))
		copy(out, items)
		sortScored(out)
		return out
	}
	h := make(maxHeap, 0, k)
	for _, it := range items {
		if len(h) < k {
			h.push(it)
		} else if less(it, h[0]) {
			h.replaceRoot(it)
		}
	}
	out := []Scored(h)
	sortScored(out)
	return out
}

// TopKByDistance scores every candidate vector against the query with the
// given distance function and returns the k closest. IDs are the candidate
// indices. This is the brute-force NNS kernel used by the flat index;
// hot-path callers that issue many queries should reuse a TopKBuffer
// instead (see FlatIndex.Search), which this function wraps.
func TopKByDistance(query Vector, candidates []Vector, k int, dist DistanceFunc) []Scored {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	var b TopKBuffer
	b.Reset(k)
	b.PushDistances(query, candidates, dist)
	return b.Result()
}

// less orders scored items ascending by distance then ID.
func less(a, b Scored) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

func sortScored(s []Scored) {
	slices.SortFunc(s, func(a, b Scored) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// maxHeap is a binary max-heap by (distance, ID), so the root is the
// worst retained candidate. It is hand-rolled rather than container/heap
// because heap.Push takes its item as an interface value: one boxing
// allocation per retained candidate, on every search.
type maxHeap []Scored

// push appends it and sifts it up to its place.
func (h *maxHeap) push(it Scored) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !less(s[parent], s[i]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// replaceRoot drops the root (the worst item) and inserts it in its
// stead, sifting down.
func (h maxHeap) replaceRoot(it Scored) {
	i := 0
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if child+1 < len(h) && less(h[child], h[child+1]) {
			child++
		}
		if !less(it, h[child]) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = it
}

// TopKBuffer incrementally selects the k closest items from a stream of
// (id, dist) pairs, with the same (distance, ID) tie-breaking as TopK.
// Because the ordering is a total order, the result is independent of
// push order and therefore exactly matches the one-shot TopK selection.
//
// Unlike TopK/TopKByDistance, which build a fresh heap per call, a
// TopKBuffer is reusable scratch: Reset rewinds it for the next query
// while keeping the backing array, so a pooled buffer makes repeated
// top-k selection allocation-free except for the returned result slice
// (and even that is avoidable via AppendResult). The flat and IVF
// indexes and the indexed cache's re-rank all select through this type.
type TopKBuffer struct {
	h maxHeap
	k int
}

// Reset discards any retained items and re-arms the buffer to keep the k
// closest subsequent pushes. The backing array is kept, so steady-state
// reuse allocates nothing once the buffer has grown to its working size.
func (b *TopKBuffer) Reset(k int) {
	if k < 0 {
		k = 0
	}
	if cap(b.h) < k {
		b.h = make(maxHeap, 0, k)
	} else {
		b.h = b.h[:0]
	}
	b.k = k
}

// Push offers one scored item to the buffer.
func (b *TopKBuffer) Push(id int, dist float32) {
	if b.k == 0 {
		return
	}
	it := Scored{ID: id, Dist: dist}
	if len(b.h) < b.k {
		b.h.push(it)
	} else if less(it, b.h[0]) {
		b.h.replaceRoot(it)
	}
}

// PushDistances scores every candidate against the query and pushes it
// under its index as ID — the flat-scan inner loop.
func (b *TopKBuffer) PushDistances(query Vector, candidates []Vector, dist DistanceFunc) {
	for i, c := range candidates {
		b.Push(i, dist(query, c))
	}
}

// Worst returns the distance a push must not exceed to be retained: the
// current k-th smallest distance, or +Inf while fewer than k items are
// held. A push at exactly Worst may still win its (distance, ID) tie, so
// scans abandon a candidate only when it is strictly farther.
func (b *TopKBuffer) Worst() float32 {
	if len(b.h) < b.k || b.k == 0 {
		return float32(math.Inf(1))
	}
	return b.h[0].Dist
}

// Len returns the number of retained items (≤ k).
func (b *TopKBuffer) Len() int { return len(b.h) }

// Result returns the retained items sorted ascending by (distance, ID).
// The buffer may be reused afterwards; the returned slice is fresh.
func (b *TopKBuffer) Result() []Scored {
	return b.AppendResult(nil)
}

// AppendResult appends the retained items, sorted ascending by
// (distance, ID), to dst and returns the extended slice — the
// allocation-free variant of Result for callers that own a scratch slice.
func (b *TopKBuffer) AppendResult(dst []Scored) []Scored {
	start := len(dst)
	dst = append(dst, b.h...)
	sortScored(dst[start:])
	return dst
}

// IDs projects the ID column of a scored slice.
func IDs(s []Scored) []int {
	out := make([]int, len(s))
	for i, it := range s {
		out[i] = it.ID
	}
	return out
}
