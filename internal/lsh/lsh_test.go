package lsh

import (
	"math/bits"
	"testing"
	"testing/quick"

	"proximity/internal/vec"
)

func TestNewHasherValidation(t *testing.T) {
	tests := []struct {
		name      string
		dim, bits int
		wantErr   bool
	}{
		{name: "valid", dim: 8, bits: 4},
		{name: "one bit", dim: 8, bits: 1},
		{name: "max bits", dim: 8, bits: MaxBits},
		{name: "zero dim", dim: 0, bits: 4, wantErr: true},
		{name: "negative dim", dim: -1, bits: 4, wantErr: true},
		{name: "zero bits", dim: 8, bits: 0, wantErr: true},
		{name: "too many bits", dim: 8, bits: MaxBits + 1, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h, err := NewHasher(tt.dim, tt.bits, 1)
			if tt.wantErr {
				if err == nil {
					t.Fatal("expected error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if h.Bits() != tt.bits || h.Dim() != tt.dim {
				t.Errorf("Bits=%d Dim=%d", h.Bits(), h.Dim())
			}
			if h.NumBuckets() != 1<<tt.bits {
				t.Errorf("NumBuckets = %d", h.NumBuckets())
			}
		})
	}
}

func TestHashDeterministicAcrossConstruction(t *testing.T) {
	a, err := NewHasher(32, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHasher(32, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(5)
	for i := 0; i < 50; i++ {
		v := vec.RandomGaussian(rng, 32)
		if a.Hash(v) != b.Hash(v) {
			t.Fatal("same seed must produce identical signatures")
		}
	}
}

func TestHashDifferentSeedsDiffer(t *testing.T) {
	a, _ := NewHasher(32, 10, 1)
	b, _ := NewHasher(32, 10, 2)
	rng := vec.NewRand(6)
	same := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		v := vec.RandomGaussian(rng, 32)
		if a.Hash(v) == b.Hash(v) {
			same++
		}
	}
	if same > trials/4 {
		t.Errorf("different hyperplanes should rarely agree on all 10 bits; agreed %d/%d", same, trials)
	}
}

func TestHashPanicsOnDimMismatch(t *testing.T) {
	h, _ := NewHasher(8, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Hash(vec.Vector{1, 2})
}

// Property: the signature is invariant under positive scaling — hyperplane
// sides depend only on direction. This is why the LSH cache buckets
// semantically-similar queries together regardless of embedding magnitude.
func TestScaleInvariance(t *testing.T) {
	h, err := NewHasher(16, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := vec.NewRand(seed)
		v := vec.RandomGaussian(r, 16)
		scaled := vec.Scale(vec.Clone(v), 0.25+float32(r.Float64())*10)
		return h.Hash(v) == h.Hash(scaled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: antipodal vectors receive complementary signatures (up to
// boundary cases with an exact zero dot product, which RandomGaussian
// essentially never produces).
func TestAntipodalComplement(t *testing.T) {
	h, err := NewHasher(16, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	mask := uint32(1<<8 - 1)
	f := func(seed uint64) bool {
		r := vec.NewRand(seed)
		v := vec.RandomGaussian(r, 16)
		neg := vec.Scale(vec.Clone(v), -1)
		return h.Hash(v)^h.Hash(neg) == mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Nearby vectors should collide far more often than random pairs; this is
// the locality property Proximity-LSH relies on to keep its hit rate.
func TestLocality(t *testing.T) {
	const (
		dim    = 64
		bits   = 8
		trials = 400
	)
	h, err := NewHasher(dim, bits, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := vec.NewRand(13)
	nearCollisions, farCollisions := 0, 0
	for i := 0; i < trials; i++ {
		base := vec.Scale(vec.RandomUnit(rng, dim), 10)
		near := vec.GaussianAround(rng, base, 0.05)
		far := vec.Scale(vec.RandomUnit(rng, dim), 10)
		if h.Hash(base) == h.Hash(near) {
			nearCollisions++
		}
		if h.Hash(base) == h.Hash(far) {
			farCollisions++
		}
	}
	if nearCollisions < trials*3/4 {
		t.Errorf("near pairs collided only %d/%d times", nearCollisions, trials)
	}
	if farCollisions > trials/4 {
		t.Errorf("far pairs collided %d/%d times, expected rare", farCollisions, trials)
	}
}

func TestProbeSequence(t *testing.T) {
	h, err := NewHasher(8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	v := vec.RandomGaussian(vec.NewRand(1), 8)
	probes := h.ProbeSequence(v)
	if len(probes) != 5 {
		t.Fatalf("len(probes) = %d, want 5", len(probes))
	}
	base := probes[0]
	if base != h.Hash(v) {
		t.Error("first probe must be the base signature")
	}
	seen := map[uint32]bool{base: true}
	for _, p := range probes[1:] {
		if bits.OnesCount32(base^p) != 1 {
			t.Errorf("probe %b is not at Hamming distance 1 from %b", p, base)
		}
		if seen[p] {
			t.Errorf("duplicate probe %b", p)
		}
		seen[p] = true
	}
}
