package vec

import "math/bits"

// BlockRows is how many rows one block of a Heads holds: one 32-byte
// AVX2 register of float32s.
const BlockRows = 8

// blockLen is the number of floats in one block: 512 bytes.
const blockLen = BlockRows * HeadLen

// Heads is the dense head array of a threshold scan: the first HeadLen
// floats of up to a fixed number of rows, block-major. Each block holds
// BlockRows rows column by column, so float k of row i sits at
// [(i/BlockRows)·blockLen + k·BlockRows + i%BlockRows], and one load of
// column k reads float k of all eight rows. This is block 0 of PDX's
// layout (Kuffo, Krippner and Boncz, "PDX: A Data Layout for Vector
// Similarity Search", SIGMOD 2025); the rest of each row stays where
// its owner keeps it. A Heads knows nothing of which rows are live: a
// scan passes one bound per live row, rows 0..len(bounds)-1, and rows
// past those are never reported.
//
// Storage grows by doubling in whole blocks and never past the blocks
// that capacity rows fill. For keys shorter than HeadLen there is no
// head to test: such a Heads stores nothing and Next reports every row.
type Heads struct {
	data      []float32 // whole blocks
	maxBlocks int       // ⌈capacity/BlockRows⌉; 0 when keys have no head
}

// NewHeads returns an empty head array for up to capacity rows of
// dim-float keys.
func NewHeads(dim, capacity int) Heads {
	if dim < HeadLen {
		return Heads{}
	}
	return Heads{maxBlocks: (capacity + BlockRows - 1) / BlockRows}
}

// Set stores the first HeadLen floats of key as row i, growing the
// storage to hold it. It panics if i is at or past the capacity.
func (h *Heads) Set(i int, key []float32) {
	if h.maxBlocks == 0 {
		return
	}
	b, r := i/BlockRows, i%BlockRows
	if need := (b + 1) * blockLen; need > len(h.data) {
		grown := make([]float32, min(max(2*len(h.data), need), h.maxBlocks*blockLen))
		copy(grown, h.data)
		h.data = grown
	}
	block := h.data[b*blockLen : (b+1)*blockLen]
	for k, x := range key[:HeadLen] {
		block[k*BlockRows+r] = x
	}
}

// Move copies row src into row dst, as a swap-remove moves the last
// slot into a victim's.
func (h *Heads) Move(dst, src int) {
	if h.maxBlocks == 0 {
		return
	}
	d := h.data[dst/BlockRows*blockLen+dst%BlockRows:]
	s := h.data[src/BlockRows*blockLen+src%BlockRows:]
	for k := 0; k < HeadLen; k++ {
		d[k*BlockRows] = s[k*BlockRows]
	}
}

// Reset drops every row and the storage.
func (h *Heads) Reset() { h.data = nil }

// HeadCursor carries one scan's last tested block from one call of
// Next to the next: resuming inside that block under the same limit
// reads its survivors instead of testing it again. The zero value
// starts a scan.
type HeadCursor struct {
	block int     // the block's index plus one; 0 before any
	mask  uint32  // its survivors, bit r for row r
	limit float32 // the limit they were tested under
}

// Next is the head test of a threshold scan, run for many rows at once:
// row i, for i < len(bounds), survives when its head sum h =
// L2SquaredHead(q, row i) satisfies !(h > bounds[i]) and !(h > limit).
// Next returns the first surviving row at or after from, or len(bounds)
// when none does. A scan keeps bounds[i] = SquaredBound(row i's
// threshold) and limit = SquaredBound(best distance so far), finishes
// each survivor with L2Bounded and resumes after it; by SquaredBound's
// monotonicity that skips exactly the rows L2Bounded would abandon at
// its first check. One scan passes one cursor to all its calls; within
// a scan the limit only tightens, and a block is tested again once it
// has.
//
// The test runs a block at a time (scanBlocks), with the sums
// bit-identical to L2SquaredHead's. A block whose every row is already
// out on the partial sum of its first eight floats skips the other
// eight: a partial sum only grows, so one above a bound proves the full
// sum above it. That is exact for every row whose head sum is not NaN;
// a row whose later floats alone make it NaN may be skipped where
// L2SquaredHead would let it through, and no such row, having a
// non-finite key or facing a non-finite query, is ever within a
// threshold. It panics if q is shorter than HeadLen.
//
//proximity:hotpath
func (h *Heads) Next(c *HeadCursor, q, bounds []float32, from int, limit float32) int {
	n := len(bounds)
	if h.maxBlocks == 0 || from >= n {
		return min(from, n)
	}
	q = q[:HeadLen]
	b := from / BlockRows
	skip := uint32(1)<<(from%BlockRows) - 1 // block b's rows before from
	if c.block == b+1 && c.limit == limit {
		if m := c.mask &^ skip; m != 0 {
			return b*BlockRows + bits.TrailingZeros32(m)
		}
		b, skip = b+1, 0
	}
	whole := n / BlockRows
	for b < whole {
		k, m := scanBlocks(q, h.data[b*blockLen:whole*blockLen], bounds[b*BlockRows:whole*BlockRows], limit)
		if k > 0 {
			skip = 0
		}
		if b += k; b == whole {
			break
		}
		c.block, c.mask, c.limit = b+1, m, limit
		if m &^= skip; m != 0 {
			return b*BlockRows + bits.TrailingZeros32(m)
		}
		b, skip = b+1, 0
	}
	if tail := n - b*BlockRows; tail > 0 {
		// The last block is partial: its bounds end early, so the
		// kernel gets a whole block's worth, and the rows past n are
		// masked off.
		var tb [BlockRows]float32
		copy(tb[:], bounds[b*BlockRows:])
		_, m := scanBlocks(q, h.data[b*blockLen:(b+1)*blockLen], tb[:], limit)
		m &= uint32(1)<<tail - 1
		c.block, c.mask, c.limit = b+1, m, limit
		if m &^= skip; m != 0 {
			return b*BlockRows + bits.TrailingZeros32(m)
		}
	}
	return n
}

// scanBlocksGeneric is scanBlocks' portable body and its reference:
// blockMask for each block in turn.
func scanBlocksGeneric(q, heads, bounds []float32, limit float32) (block int, mask uint32) {
	n := len(bounds) / BlockRows
	for b := 0; b < n; b++ {
		if m := blockMask(q, heads[b*blockLen:(b+1)*blockLen], bounds[b*BlockRows:(b+1)*BlockRows], limit); m != 0 {
			return b, m
		}
	}
	return n, 0
}

// blockMask returns one block's survivors, bit r for row r. Lane r's
// four accumulators s0…s3 sum (q[k]−h[k])² for k = j, j+4, j+8, j+12 in
// that order, as L2SquaredHead's do, and ((s0+s1)+s2)+s3 is tested.
// After floats 0–7 the same association gives a partial sum; when it
// rules out all eight rows, floats 8–15 are never read.
func blockMask(q, block, bounds []float32, limit float32) uint32 {
	q, block, bounds = q[:HeadLen], block[:blockLen], bounds[:BlockRows]
	var s [4][BlockRows]float32
	mask := func() uint32 {
		var m uint32
		for r, bound := range bounds {
			if h := s[0][r] + s[1][r] + s[2][r] + s[3][r]; !(h > bound) && !(h > limit) {
				m |= 1 << r
			}
		}
		return m
	}
	add := func(k0, k1 int) {
		for k := k0; k < k1; k++ {
			col := block[k*BlockRows : (k+1)*BlockRows]
			for r, x := range col {
				d := q[k] - x
				s[k%4][r] += d * d
			}
		}
	}
	add(0, HeadLen/2)
	if mask() == 0 {
		return 0
	}
	add(HeadLen/2, HeadLen)
	return mask()
}
