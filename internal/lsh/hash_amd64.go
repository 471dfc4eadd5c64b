package lsh

// groupPlanes is how many planes one call of dots4 accumulates: XMM1–
// XMM14, beside the query chunk in X0 and the product in X15. Every L
// up to groupPlanes, the paper's 4–10 included, is one pass over q.
const groupPlanes = 14

// project sets dst[i] to vec.Dot(q, plane i) for the first len(dst)
// planes, bit for bit: dots4 sums q's whole four-float chunks into
// vec.Dot's accumulators s0…s3, one XMM register a plane, and the tail
// and the final ((s0+s1)+s2)+s3 run here in vec.Dot's order.
func (h *Hasher) project(dst []float32, q []float32) {
	var acc [4 * groupPlanes]float32
	whole := len(q) &^ 3
	for g := 0; g < len(dst); g += groupPlanes {
		n := min(groupPlanes, len(dst)-g)
		dots4(q, h.planes[g*h.dim:], n, &acc)
		for j := range n {
			p := h.plane(g + j)[:len(q)]
			s0, s1, s2, s3 := acc[4*j], acc[4*j+1], acc[4*j+2], acc[4*j+3]
			for i := whole; i < len(q); i++ {
				s0 += q[i] * p[i]
			}
			dst[g+j] = s0 + s1 + s2 + s3
		}
	}
}

// dots4 sets acc[4j+k], for each of the first n (1…groupPlanes) planes
// j of planes (row-major, len(q) floats a row), to lane k of vec.Dot's
// sum over q's whole four-float chunks: products q[i]·plane[i] for
// i ≡ k (mod 4), added in order (hash_amd64.s).
//
//go:noescape
func dots4(q, planes []float32, n int, acc *[4 * groupPlanes]float32)
