package hnsw

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"proximity/internal/vec"
)

// buildOnceHash is the FNV-64a hash of every result (id and distance
// bits, in rank order) of 200 k = 10 queries against a 2 000-vector,
// d = 64 Gaussian graph built through Add with the default Config.
const buildOnceHash = 0x2538c2f40a8e5e95

// TestBuildOnceGraphPinned pins the graph Add builds and Search walks:
// any change to link selection, level draws or the beam moves the hash.
// The paper-figure suite and examples/mmlu build their databases this way.
func TestBuildOnceGraphPinned(t *testing.T) {
	const (
		n       = 2000
		d       = 64
		k       = 10
		queries = 200
	)
	rng := vec.NewRand(11)
	ix, err := New(d, vec.L2Distance, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ix.Add(vec.RandomGaussian(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	h := fnv.New64a()
	var buf [12]byte
	for qi := 0; qi < queries; qi++ {
		res, err := ix.Search(vec.RandomGaussian(rng, d), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != k {
			t.Fatalf("query %d: %d results, want %d", qi, len(res), k)
		}
		for _, s := range res {
			binary.LittleEndian.PutUint64(buf[:8], uint64(s.ID))
			binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(s.Dist))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != buildOnceHash {
		t.Errorf("result hash = %#x, want %#x", got, uint64(buildOnceHash))
	}
}
