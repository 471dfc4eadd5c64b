package vec

import (
	"math"
	"slices"
	"testing"
)

// survivors lists every row next reports, resuming after each one as a
// scan does.
func survivors(next func(q, heads, bounds []float32, limit float32) int, q, heads, bounds []float32, limit float32) []int {
	var out []int
	for i := 0; ; i++ {
		i += next(q, heads[i*HeadLen:], bounds[i:], limit)
		if i >= len(bounds) {
			return out
		}
		out = append(out, i)
	}
}

// FuzzNextHead holds NextHead — on amd64 its SSE2 blocks of four rows —
// to the portable body at every row count from 0 to 71, so every
// remainder mod 4 and every block position. Rows are small eighths
// (frequent exact ties) or arbitrary bit patterns (NaN, ±Inf,
// subnormals); each row's bound is picked per row among its own head sum
// (a head equal to its bound survives), one ulp either side, 0, +Inf,
// NaN and a raw value; the limit is arbitrary bits, so 0, +Inf and NaN
// among them. The head array may start off 16-byte alignment.
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
		shift := int(at(0) % 4) // floats of misalignment before the first head
		q := make([]float32, HeadLen)
		buf := make([]float32, shift+n*HeadLen)
		heads := buf[shift:]
		for i := range q {
			q[i] = float(i)
		}
		for i := range heads {
			heads[i] = float(HeadLen + i)
		}
		bounds := make([]float32, n)
		for i := range bounds {
			h := L2SquaredHead(q, heads[i*HeadLen:])
			switch at(3*i+1) % 7 {
			case 0:
				bounds[i] = h
			case 1:
				bounds[i] = math.Nextafter32(h, 0)
			case 2:
				bounds[i] = math.Nextafter32(h, float32(math.Inf(1)))
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

		if got, want := NextHead(q, heads, bounds, limit), nextHeadGeneric(q, heads, bounds, limit); got != want {
			t.Fatalf("%d rows (shift %d) limit %v: NextHead %d, portable body %d", n, shift, limit, got, want)
		}
		got := survivors(NextHead, q, heads, bounds, limit)
		if want := survivors(nextHeadGeneric, q, heads, bounds, limit); !slices.Equal(got, want) {
			t.Fatalf("%d rows (shift %d) limit %v: survivors %v, portable body %v", n, shift, limit, got, want)
		}
	})
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
