package vec

import (
	"math"
	"testing"
)

// sameFloat reports bit equality, with every NaN equal to every other.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// fuzzVectors builds two n-float vectors from data: small eighths when
// raw is false (finite sums, frequent exact ties), arbitrary bit
// patterns — NaN, ±Inf, subnormals, overflowing magnitudes — when true.
func fuzzVectors(data []byte, n int, raw bool) (a, b Vector) {
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	a, b = make(Vector, n), make(Vector, n)
	for i := range a {
		if raw {
			j := 8 * i
			a[i] = math.Float32frombits(uint32(at(j)) | uint32(at(j+1))<<8 | uint32(at(j+2))<<16 | uint32(at(j+3))<<24)
			b[i] = math.Float32frombits(uint32(at(j+4)) | uint32(at(j+5))<<8 | uint32(at(j+6))<<16 | uint32(at(j+7))<<24)
		} else {
			a[i] = float32(int8(at(2*i))) / 8
			b[i] = float32(int8(at(2*i+1))) / 8
		}
	}
	return a, b
}

// FuzzL2SquaredBounded pins the kernel's contract against L2Squared over
// lengths 0–1100 (so every remainder mod 16 and mod 4) and arbitrary
// bounds: a sum that is returned is the sum L2Squared returns, and an
// abandoned pair is one no threshold test would have admitted. From
// HeadLen floats on it holds L2SquaredHead to being the kernel's first
// check: L2Squared's sum over the head, never above the full sum, and
// above the bound exactly when the kernel abandons there. The last part
// holds L2Bounded, the distance-unit wrapper every scan calls, to the
// same contract against L2.
func FuzzL2SquaredBounded(f *testing.F) {
	inf := math.Float32bits(float32(math.Inf(1)))
	f.Add([]byte{}, uint16(0), uint32(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7}, uint16(16), uint32(0), false)
	f.Add([]byte{9, 250, 7, 3}, uint16(768), inf, false)
	f.Add([]byte{9, 250, 7, 3}, uint16(768), math.Float32bits(300), false)
	f.Add([]byte{128, 127, 0, 1, 77}, uint16(1099), math.Float32bits(float32(math.NaN())), false)
	f.Add([]byte{0, 0, 128, 127, 0, 0, 128, 127, 1}, uint16(35), math.Float32bits(1), true)
	f.Fuzz(func(t *testing.T, data []byte, n uint16, boundBits uint32, raw bool) {
		a, b := fuzzVectors(data, int(n)%1101, raw)
		bound := math.Float32frombits(boundBits)

		full := L2Squared(a, b)
		sum, ok := L2SquaredBounded(a, b, bound)
		switch {
		case ok && !sameFloat(sum, full):
			t.Fatalf("len %d bound %v: kept sum %v (%#x), L2Squared %v (%#x)",
				len(a), bound, sum, math.Float32bits(sum), full, math.Float32bits(full))
		case ok && sum > bound:
			t.Fatalf("len %d: kept sum %v exceeds bound %v", len(a), sum, bound)
		case !ok && full <= bound:
			t.Fatalf("len %d: abandoned at partial %v although L2Squared %v ≤ bound %v", len(a), sum, full, bound)
		case !ok && !(sum > bound):
			t.Fatalf("len %d: abandoned at partial %v, not above bound %v", len(a), sum, bound)
		case !ok && sum > full:
			t.Fatalf("len %d: partial %v above the full sum %v", len(a), sum, full)
		}

		if len(a) >= HeadLen {
			head := L2SquaredHead(a, b)
			if want := L2Squared(a[:HeadLen], b[:HeadLen]); !sameFloat(head, want) {
				t.Fatalf("len %d: head %v (%#x), L2Squared of the first %d floats %v (%#x)",
					len(a), head, math.Float32bits(head), HeadLen, want, math.Float32bits(want))
			}
			if head > full {
				t.Fatalf("len %d: head %v above the full sum %v", len(a), head, full)
			}
			// A later check abandons only on a sum above bound, hence
			// above a head that was not, so it never matches this.
			firstCheck := !ok && sameFloat(sum, head)
			if skip := head > bound; skip != firstCheck {
				t.Fatalf("len %d bound %v: head %v skips %v, but kernel returned (%v, %v)",
					len(a), bound, head, skip, sum, ok)
			}
		}

		dist := L2(a, b)
		d, ok := L2Bounded(a, b, bound)
		if ok && !sameFloat(d, dist) {
			t.Fatalf("len %d maxDist %v: L2Bounded %v, L2 %v", len(a), bound, d, dist)
		}
		if !ok && dist <= bound {
			t.Fatalf("len %d: L2Bounded abandoned although L2 %v ≤ maxDist %v", len(a), dist, bound)
		}
	})
}

// TestL2BoundedAtTheThreshold aims at the one place random inputs miss:
// a pair whose distance is exactly the threshold, or one ulp either
// side, at magnitudes from subnormal sums to ones near overflow. At or
// above the distance the pair must survive (d ≤ maxDist is a hit);
// comfortably below it must be abandoned, or the margin is vacuous.
func TestL2BoundedAtTheThreshold(t *testing.T) {
	rng := NewRand(11)
	inf := float32(math.Inf(1))
	for _, scale := range []float32{1e-24, 1e-19, 1e-9, 1, 37, 1e9, 1e17} {
		for _, n := range []int{1, 3, 15, 16, 17, 64, 100, 768} {
			for trial := 0; trial < 200; trial++ {
				a, b := Scale(RandomGaussian(rng, n), scale), Scale(RandomGaussian(rng, n), scale)
				dist := L2(a, b)
				for _, maxDist := range []float32{dist, math.Nextafter32(dist, inf), 2 * dist, inf} {
					if d, ok := L2Bounded(a, b, maxDist); !ok || d != dist {
						t.Fatalf("scale %g len %d: distance %v under maxDist %v: got (%v, %v)", scale, n, dist, maxDist, d, ok)
					}
				}
				if below := math.Nextafter32(dist, 0); below < dist {
					if d, ok := L2Bounded(a, b, below); ok && d != dist {
						t.Fatalf("scale %g len %d: kept distance %v, L2 %v", scale, n, d, dist)
					}
				}
				if dist > 0 && dist < inf {
					if _, ok := L2Bounded(a, b, dist*0.999); ok {
						t.Fatalf("scale %g len %d: distance %v survived maxDist %v", scale, n, dist, dist*0.999)
					}
				}
			}
		}
	}
}

func TestTopKBufferWorst(t *testing.T) {
	inf := float32(math.Inf(1))
	var b TopKBuffer
	if w := b.Worst(); w != inf {
		t.Fatalf("zero buffer Worst = %v, want +Inf", w)
	}
	b.Reset(2)
	b.Push(0, 5)
	if w := b.Worst(); w != inf {
		t.Fatalf("Worst below k items = %v, want +Inf", w)
	}
	b.Push(1, 3)
	if w := b.Worst(); w != 5 {
		t.Fatalf("Worst = %v, want 5", w)
	}
	b.Push(2, 4)
	if w := b.Worst(); w != 4 {
		t.Fatalf("Worst after a closer push = %v, want 4", w)
	}
	b.Reset(2)
	if w := b.Worst(); w != inf {
		t.Fatalf("Worst after Reset = %v, want +Inf", w)
	}
}
