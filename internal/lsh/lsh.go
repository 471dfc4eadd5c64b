// Package lsh implements random-hyperplane locality-sensitive hashing
// (Charikar, STOC '02), the bucketing scheme behind Proximity-LSH (§3.2 of
// the paper). Each embedding is compared against L random hyperplanes
// through the origin; the resulting L-bit sign pattern is the bucket key.
// Vectors with a small angle collide with high probability, so each bucket
// of the cache holds mutually similar queries.
//
// The L planes live in one contiguous row-major array, and Hash computes
// all L projections in one pass over the query (on amd64 an SSE2 kernel,
// hash_amd64.s; elsewhere vec.Dot per plane). Every projection is
// bit-identical to vec.Dot(q, plane), so a signature does not depend on
// the body that computed it: shard routing, LSH buckets, the cluster
// ring and migration previews agree across builds.
package lsh

import (
	"fmt"

	"proximity/internal/vec"
)

// MaxBits bounds the signature width so bucket keys fit comfortably in a
// uint32 map key. The paper evaluates L ∈ {4, 6, 8, 10}.
const MaxBits = 30

// Hasher computes L-bit signatures from a fixed set of random hyperplanes.
// A Hasher is immutable after construction and safe for concurrent use.
type Hasher struct {
	planes []float32 // plane i is planes[i·dim : (i+1)·dim]
	bits   int
	dim    int
}

// NewHasher creates a hasher with bits hyperplanes for dim-dimensional
// vectors. The hyperplane normals are drawn deterministically from the
// seed so that every run of an experiment buckets identically.
func NewHasher(dim, bits int, seed uint64) (*Hasher, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("lsh: dimension must be positive, got %d", dim)
	}
	if bits <= 0 || bits > MaxBits {
		return nil, fmt.Errorf("lsh: bits must be in [1, %d], got %d", MaxBits, bits)
	}
	rng := vec.NewRand(seed)
	planes := make([]float32, 0, bits*dim)
	for range bits {
		planes = append(planes, vec.RandomUnit(rng, dim)...)
	}
	return &Hasher{planes: planes, bits: bits, dim: dim}, nil
}

// Bits returns the signature width L.
func (h *Hasher) Bits() int { return h.bits }

// Dim returns the expected vector dimensionality.
func (h *Hasher) Dim() int { return h.dim }

// NumBuckets returns 2^L, the theoretical number of buckets.
func (h *Hasher) NumBuckets() int { return 1 << h.bits }

// Hash returns the signature h(q) = (q·r₁ ≥ 0, …, q·r_L ≥ 0) packed into a
// uint32, bit i set when q·rᵢ ≥ 0. The cost is O(L·d), matching the
// paper's lookup cost analysis. Hash panics on a dimension mismatch, which
// indicates a programming error (mixing embedders); input from outside
// the process is length-checked where it enters.
//
//proximity:hotpath
func (h *Hasher) Hash(q vec.Vector) uint32 {
	if len(q) != h.dim {
		panic(fmt.Sprintf("lsh: vector dim %d, hasher dim %d", len(q), h.dim))
	}
	var proj [MaxBits]float32
	h.project(proj[:h.bits], q)
	var sig uint32
	for i, x := range proj[:h.bits] {
		if x >= 0 {
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// plane returns hyperplane i's normal.
func (h *Hasher) plane(i int) []float32 { return h.planes[i*h.dim : (i+1)*h.dim] }

// projectGeneric is project's portable body: dst[i] = vec.Dot(q, plane i).
func (h *Hasher) projectGeneric(dst []float32, q []float32) {
	for i := range dst {
		dst[i] = vec.Dot(q, h.plane(i))
	}
}

// ProbeSequence returns the signature followed by its single-bit
// perturbations, i.e. the buckets in increasing Hamming distance up to
// distance 1. Multi-probe lookup is an optional extension (§6 future
// work): checking adjacent buckets trades extra scans for a higher hit
// rate on queries that straddle a hyperplane.
func (h *Hasher) ProbeSequence(q vec.Vector) []uint32 {
	base := h.Hash(q)
	out := make([]uint32, 0, 1+h.Bits())
	out = append(out, base)
	for i := 0; i < h.Bits(); i++ {
		out = append(out, base^(1<<uint(i)))
	}
	return out
}
