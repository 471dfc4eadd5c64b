package lsh

import (
	"math"
	"testing"

	"proximity/internal/vec"
)

// testHasher builds a Hasher over arbitrary planes, the bits·dim floats
// of raw starting at off, so tests reach dimensions NewHasher refuses
// (0) and planes that start off a 16-byte boundary.
func testHasher(raw []float32, off, dim, bits int) *Hasher {
	return &Hasher{planes: raw[off : off+bits*dim], bits: bits, dim: dim}
}

// sameBits reports whether x and y are the same float32 bit for bit, or
// both NaN. Which NaN a sum of two NaNs returns depends on which operand
// the compiler happened to put first — vec.Dot's own lanes differ, lanes
// 0–2 adding the accumulator to the product and lane 3 the product to
// the accumulator — and a signature reads only x >= 0, false for every
// NaN. Every other result, ±0 and ±Inf included, must match exactly.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || x != x && y != y
}

// checkProjections fails unless project (the kernel where there is one)
// and projectGeneric (the portable body) both give every plane's
// projection of q as vec.Dot does (sameBits), and Hash sets bit i
// exactly when vec.Dot(q, plane i) >= 0.
func checkProjections(t *testing.T, h *Hasher, q []float32) {
	t.Helper()
	var got, generic [MaxBits]float32
	h.project(got[:h.bits], q)
	h.projectGeneric(generic[:h.bits], q)
	var want uint32
	for i := range h.bits {
		d := vec.Dot(q, h.plane(i))
		if d >= 0 {
			want |= 1 << uint(i)
		}
		if !sameBits(got[i], d) {
			t.Fatalf("dim %d, L %d: plane %d projects to %v (%#08x), vec.Dot %v (%#08x)",
				h.dim, h.bits, i, got[i], math.Float32bits(got[i]), d, math.Float32bits(d))
		}
		if !sameBits(generic[i], d) {
			t.Fatalf("dim %d, L %d: portable body projects plane %d to %v, vec.Dot %v",
				h.dim, h.bits, i, generic[i], d)
		}
	}
	if h.dim > 0 {
		if sig := h.Hash(q); sig != want {
			t.Fatalf("dim %d, L %d: Hash = %#x, vec.Dot signs %#x", h.dim, h.bits, sig, want)
		}
	}
}

// specials are the components the table test mixes into queries and
// planes: signed zeros, NaN, ±Inf, subnormals, and magnitudes whose
// products or sums overflow.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	math.MaxFloat32, -math.MaxFloat32, 3e38, -1.7e38, 1e20, -1e19,
}

// TestProjectMatchesDot compares every projection with vec.Dot (sameBits)
// at every dimension 0–80 and 768, every L from 1 to MaxBits,
// queries and planes that start at each float offset 0–3, and queries
// that are Gaussian, carry one special component, or carry several.
func TestProjectMatchesDot(t *testing.T) {
	rng := vec.NewRand(7)
	dims := make([]int, 0, 82)
	for d := 0; d <= 80; d++ {
		dims = append(dims, d)
	}
	dims = append(dims, 768)
	for _, dim := range dims {
		raw := make([]float32, 3+MaxBits*dim)
		for i := range MaxBits {
			if dim > 0 {
				copy(raw[3+i*dim:], vec.RandomUnit(rng, dim))
			}
		}
		qraw := make([]float32, 3+dim)
		for bits := 1; bits <= MaxBits; bits++ {
			off := bits % 4
			h := testHasher(raw[3-off:], 0, dim, bits)
			q := qraw[off : off+dim]
			for i := range q {
				q[i] = float32(rng.NormFloat64())
			}
			checkProjections(t, h, q)
			if dim == 0 {
				continue
			}
			s := specials[bits%len(specials)]
			q[rng.IntN(dim)] = s
			checkProjections(t, h, q)
			for i := range q {
				if rng.IntN(4) == 0 {
					q[i] = specials[rng.IntN(len(specials))]
				}
			}
			checkProjections(t, h, q)
		}
	}
}

// TestProjectArbitraryPlanes runs the kernel over planes that are not
// unit normals — special components in the planes as well as in the
// query — at every dimension 1–80 and 768 and the widths at and around
// one kernel call's plane group.
func TestProjectArbitraryPlanes(t *testing.T) {
	rng := vec.NewRand(11)
	pick := func() float32 {
		if rng.IntN(8) == 0 {
			return specials[rng.IntN(len(specials))]
		}
		return float32(rng.NormFloat64() * 100)
	}
	for dim := 1; dim <= 81; dim++ {
		if dim == 81 {
			dim = 768
		}
		for _, bits := range []int{1, 2, 13, 14, 15, 28, MaxBits} {
			raw := make([]float32, 1+bits*dim)
			for i := range raw {
				raw[i] = pick()
			}
			q := make([]float32, dim)
			for i := range q {
				q[i] = pick()
			}
			checkProjections(t, testHasher(raw, 1, dim, bits), q)
		}
	}
}

// FuzzHash compares the kernel and the portable body with vec.Dot for
// every plane (sameBits) and Hash with vec.Dot's signs, over fuzzed queries and planes: dimension
// 0–80 or 768, L from 1 to MaxBits, any float offset of the planes, and
// components either small multiples of 1/8 or raw float32 bit patterns
// (NaN, ±Inf, subnormals and huge magnitudes included).
func FuzzHash(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(1), uint8(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint8(5), uint8(10), uint8(1), false)
	f.Add([]byte{9, 250, 7, 3, 0, 1}, uint8(81), uint8(5), uint8(3), false)
	f.Add([]byte{0, 0, 192, 127, 1, 0, 0, 0, 5, 0, 128, 255}, uint8(23), uint8(30), uint8(2), true)
	f.Add([]byte{255, 255, 127, 127, 1, 0, 128, 0}, uint8(77), uint8(14), uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, dimSel, bitsSel, off uint8, raw bool) {
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
		dim := int(dimSel) % 82
		if dim == 81 {
			dim = 768
		}
		bits := 1 + int(bitsSel)%MaxBits
		o := int(off) % 4
		planes := make([]float32, o+bits*dim)
		for i := range planes {
			planes[i] = float(i + 7)
		}
		q := make([]float32, dim)
		for i := range q {
			q[i] = float(len(planes) + i)
		}
		checkProjections(t, testHasher(planes, o, dim, bits), q)
	})
}
