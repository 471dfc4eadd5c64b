package vec

import (
	"math"
	"slices"
	"testing"
)

// survivors lists every row Next reports, resuming after each one with
// one cursor as a scan does.
func survivors(h *Heads, q, bounds []float32, limit float32) []int {
	var out []int
	var cur HeadCursor
	for i := 0; ; i++ {
		if i = h.Next(&cur, q, bounds, i, limit); i >= len(bounds) {
			return out
		}
		out = append(out, i)
	}
}

// FuzzNextHead holds Heads.Next to three contracts at every row count
// from 0 to 71, so every remainder mod BlockRows, and from every start
// row, mid-block ones included. First, on amd64 the AVX2 kernel agrees
// with the portable body on every whole block, from every block start
// and on a head array off 32-byte alignment, and on the padded last
// block. Second, the survivors are L2SquaredHead's: a row is reported
// exactly when !(h > bound) and !(h > limit) for its head sum h, except
// that a row whose sum is NaN may go either way (see Next). Third, a
// cursor carried through a scan changes no answer: a chain of resumes
// under one cursor, with the limit tightening to each survivor's head
// sum as a scan's does, reports what a fresh cursor does at each step.
// Rows are small eighths (finite sums, frequent exact ties) or
// arbitrary bit patterns (NaN, ±Inf, subnormals, overflowing
// magnitudes); each row's bound is picked per row among its own head
// sum (a head equal to its bound survives), one ulp either side, 0,
// +Inf, NaN and a raw value; the limit is arbitrary bits, so 0, +Inf
// and NaN among them.
func FuzzNextHead(f *testing.F) {
	inf := math.Float32bits(float32(math.Inf(1)))
	nan := math.Float32bits(float32(math.NaN()))
	f.Add([]byte{}, uint8(0), uint32(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint8(4), inf, false)
	f.Add([]byte{9, 250, 7, 3, 0, 1}, uint8(19), uint32(0), false)
	f.Add([]byte{128, 127, 0, 1, 77, 2}, uint8(70), nan, false)
	f.Add([]byte{0, 0, 128, 127, 1, 0, 0, 0, 5}, uint8(23), math.Float32bits(1), true)
	f.Fuzz(func(t *testing.T, data []byte, rows uint8, limitBits uint32, raw bool) {
		at := func(i int) byte {
			if len(data) == 0 {
				return 0
			}
			return data[i%len(data)]
		}
		float := func(i int) float32 {
			if raw {
				j := 4 * i
				return math.Float32frombits(uint32(at(j)) | uint32(at(j+1))<<8 | uint32(at(j+2))<<16 | uint32(at(j+3))<<24)
			}
			return float32(int8(at(i))) / 8
		}
		n := int(rows) % 72
		q := make([]float32, HeadLen)
		for i := range q {
			q[i] = float(i)
		}
		// Rows past n up to the end of their block hold stale heads, as
		// after a swap-remove; no scan may report one.
		h := NewHeads(HeadLen, n+BlockRows)
		keys := make([][]float32, (n+BlockRows-1)/BlockRows*BlockRows)
		for i := range keys {
			keys[i] = make([]float32, HeadLen)
			for k := range keys[i] {
				keys[i][k] = float(HeadLen*(i+1) + k)
			}
			h.Set(i, keys[i])
		}
		keys = keys[:n]
		sums := make([]float32, n)
		bounds := make([]float32, n)
		for i := range bounds {
			sums[i] = L2SquaredHead(q, keys[i])
			switch at(3*i+1) % 7 {
			case 0:
				bounds[i] = sums[i]
			case 1:
				bounds[i] = math.Nextafter32(sums[i], 0)
			case 2:
				bounds[i] = math.Nextafter32(sums[i], float32(math.Inf(1)))
			case 3:
				bounds[i] = 0
			case 4:
				bounds[i] = float32(math.Inf(1))
			case 5:
				bounds[i] = float32(math.NaN())
			default:
				bounds[i] = float(7 * i)
			}
		}
		limit := math.Float32frombits(limitBits)

		// The kernel against its portable body, block by block.
		shift := 1 + int(at(0)%7) // floats of misalignment
		heads := make([]float32, shift+len(h.data))[shift:]
		copy(heads, h.data)
		whole := n / BlockRows
		for b := 0; b < whole; b++ {
			hb, bb := heads[b*blockLen:whole*blockLen], bounds[b*BlockRows:whole*BlockRows]
			gotB, gotM := scanBlocks(q, hb, bb, limit)
			wantB, wantM := scanBlocksGeneric(q, hb, bb, limit)
			if gotB != wantB || gotM != wantM {
				t.Fatalf("%d rows limit %v from block %d: kernel block %d mask %#x, portable block %d mask %#x",
					n, limit, b, gotB, gotM, wantB, wantM)
			}
		}
		if n > whole*BlockRows {
			var tb [BlockRows]float32
			copy(tb[:], bounds[whole*BlockRows:])
			hb := heads[whole*blockLen : (whole+1)*blockLen]
			if _, got := scanBlocks(q, hb, tb[:], limit); got != blockMask(q, hb, tb[:], limit) {
				t.Fatalf("%d rows limit %v: last block's kernel mask %#x, portable %#x", n, limit, got, blockMask(q, hb, tb[:], limit))
			}
		}

		// Next from every row, with a fresh cursor, against the
		// survivors a scan's one cursor reports.
		got := survivors(&h, q, bounds, limit)
		for from := 0; from <= n+1; from++ {
			i, _ := slices.BinarySearch(got, from)
			want := n
			if i < len(got) {
				want = got[i]
			}
			if next := h.Next(new(HeadCursor), q, bounds, from, limit); next != want {
				t.Fatalf("%d rows limit %v: Next from %d = %d, survivors %v", n, limit, from, next, got)
			}
		}

		// A scan whose limit tightens: one cursor against fresh ones.
		var cur HeadCursor
		for i, lim := 0, limit; i < n; i++ {
			want := h.Next(new(HeadCursor), q, bounds, i, lim)
			if i = h.Next(&cur, q, bounds, i, lim); i != want {
				t.Fatalf("%d rows, limit tightened to %v: Next with the scan's cursor %d, fresh %d", n, lim, i, want)
			}
			if i < n && sums[i] < lim {
				lim = sums[i]
			}
		}

		// The survivors against L2SquaredHead.
		var want []int
		for i, s := range sums {
			if !(s > bounds[i]) && !(s > limit) {
				want = append(want, i)
			}
		}
		notNaN := func(i int) bool { return sums[i] == sums[i] }
		if g, w := filter(got, notNaN), filter(want, notNaN); !slices.Equal(g, w) {
			t.Fatalf("%d rows limit %v: survivors %v, L2SquaredHead's %v (NaN sums left out)", n, limit, g, w)
		}
	})
}

func filter(rows []int, keep func(int) bool) []int {
	var out []int
	for _, i := range rows {
		if keep(i) {
			out = append(out, i)
		}
	}
	return out
}

// TestHeadsLayout pins the block-major layout and its bookkeeping: Set
// writes float k of row i at (i/8)·128 + k·8 + i%8, Row and Move read
// and copy a row across blocks, storage doubles in whole blocks up to
// ⌈capacity/8⌉ and no further, and keys below HeadLen floats store
// nothing while Next reports every row.
func TestHeadsLayout(t *testing.T) {
	const capacity = 21
	h := NewHeads(HeadLen+3, capacity)
	key := func(i int) []float32 {
		k := make([]float32, HeadLen+3)
		for j := range k {
			k[j] = float32(100*i + j)
		}
		return k
	}
	var blocks []int
	for i := 0; i < capacity; i++ {
		h.Set(i, key(i))
		if b := h.Blocks(); len(blocks) == 0 || blocks[len(blocks)-1] != b {
			blocks = append(blocks, b)
		}
	}
	if want := []int{1, 2, 3}; !slices.Equal(blocks, want) {
		t.Fatalf("storage grew through %v blocks, want %v", blocks, want)
	}
	for i := 0; i < capacity; i++ {
		for k := 0; k < HeadLen; k++ {
			if got := h.data[i/8*128+k*8+i%8]; got != key(i)[k] {
				t.Fatalf("row %d float %d at the block-major index holds %v, want %v", i, k, got, key(i)[k])
			}
		}
	}
	h.Move(3, 20)
	if got, want := h.Row(3), [HeadLen]float32(key(20)); got != want {
		t.Fatalf("row 3 after Move(3, 20) = %v, want %v", got, want)
	}
	if got, want := h.Row(4), [HeadLen]float32(key(4)); got != want {
		t.Fatalf("Move disturbed row 4: %v, want %v", got, want)
	}
	h.Reset()
	if h.Blocks() != 0 {
		t.Fatalf("%d blocks after Reset", h.Blocks())
	}

	short := NewHeads(HeadLen-1, capacity)
	short.Set(0, make([]float32, HeadLen-1))
	short.Move(0, 1)
	if short.Blocks() != 0 {
		t.Fatalf("a head array for %d-float keys holds %d blocks", HeadLen-1, short.Blocks())
	}
	bounds := make([]float32, 3)
	for from := 0; from <= 4; from++ {
		if got := short.Next(new(HeadCursor), nil, bounds, from, 0); got != min(from, 3) {
			t.Fatalf("Next from %d over headless rows = %d", from, got)
		}
	}
}

// TestSquaredBoundMonotone checks, bit for bit, the property the head
// scans rest on: SquaredBound(min(a, b)) = min(SquaredBound(a),
// SquaredBound(b)) for non-negative a and b, from zero and subnormals
// through MaxFloat32 (whose bound overflows to +Inf) and +Inf.
func TestSquaredBoundMonotone(t *testing.T) {
	vals := []float32{
		0, math.SmallestNonzeroFloat32, 2 * math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x00800000),
		1e-20, 0.5, 1, 1.0000001, 3, 1e19, 1.8446743e19, 1e30,
		math.MaxFloat32, float32(math.Inf(1)),
	}
	rng := NewRand(9)
	for len(vals) < 400 {
		if v := math.Float32frombits(rng.Uint32() & 0x7fffffff); v < float32(math.Inf(1)) {
			vals = append(vals, v)
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			got, want := SquaredBound(min(a, b)), min(SquaredBound(a), SquaredBound(b))
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("SquaredBound(min(%v, %v)) = %v, min of the bounds %v", a, b, got, want)
			}
		}
	}
}
