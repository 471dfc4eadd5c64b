package vec

import "math/rand/v2"

// NewRand returns a deterministic PRNG for the given seed. All randomness
// in the reproduction flows through explicitly seeded generators so every
// experiment is replayable; the paper averages five seeded runs (§4.2.4)
// and the harness does the same.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// RandomGaussian returns a d-dimensional vector with i.i.d. N(0,1) entries.
func RandomGaussian(rng *rand.Rand, d int) Vector {
	v := make(Vector, d)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// RandomUnit returns a uniformly distributed d-dimensional unit vector.
// Used for LSH hyperplane normals and synthetic topic centroids.
func RandomUnit(rng *rand.Rand, d int) Vector {
	for {
		v := RandomGaussian(rng, d)
		if n := Norm(v); n > 1e-6 {
			return Scale(v, 1/n)
		}
	}
}

// GaussianAround returns center + sigma*N(0,I), a point in the cluster
// around the given centroid. The caller retains ownership of center.
func GaussianAround(rng *rand.Rand, center Vector, sigma float32) Vector {
	v := make(Vector, len(center))
	for i := range v {
		v[i] = center[i] + sigma*float32(rng.NormFloat64())
	}
	return v
}
