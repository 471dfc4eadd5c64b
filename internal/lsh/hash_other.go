//go:build !amd64

package lsh

// project sets dst[i] to vec.Dot(q, plane i) for the first len(dst)
// planes; without an assembly kernel it is the portable body.
func (h *Hasher) project(dst []float32, q []float32) { h.projectGeneric(dst, q) }
