package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// TestBoundedScanIsExact drives one op stream through a FlatCache and
// the Algorithm 1 oracle (oracle_test.go), whose scan finishes every key
// with the plain L2 kernel, and requires them to agree on every
// observable: hit or miss, which entry served, every reported distance to
// the bit, the order entries are evicted in, and the final contents. The
// stream mixes random traffic with the cases an early-abandoning scan
// could get wrong: queries one ulp either side of τ, per-entry tolerances
// equal to (and one ulp below) the query's exact distance, exact ties
// between duplicate keys, τ = 0, and tolerance 0 lines.
func TestBoundedScanIsExact(t *testing.T) {
	const (
		dim      = 40 // two 16-float strides and an 8-float tail
		capacity = 24
		ops      = 6000
	)
	for _, policy := range []Policy{FIFO, LRU} {
		for _, tau := range []float32{0, 1.5} {
			t.Run(fmt.Sprintf("%v/tau=%v", policy, tau), func(t *testing.T) {
				var evicted []Entry
				c := mustFlat(t, dim, Options{
					Capacity: capacity, Tolerance: tau, Policy: policy,
					OnEvict: func(e Entry) { evicted = append(evicted, e) },
				})
				o := &flatOracle{dim: dim, capacity: capacity, lru: policy == LRU}
				rng := vec.NewRand(uint64(policy)*100 + uint64(tau*10))
				centres := make([]vec.Vector, 6)
				for i := range centres {
					centres[i] = vec.Scale(vec.RandomGaussian(rng, dim), 3)
				}
				var keys []vec.Vector // every key ever inserted
				nextDoc := 0
				put := func(q vec.Vector, tol float32) {
					c.PutWithTolerance(q, []int{nextDoc}, tol)
					o.put(q, []int{nextDoc}, tol)
					keys = append(keys, vec.Clone(q))
					nextDoc++
				}
				// at returns a point at distance ≈ r from key, in a
				// random direction.
				at := func(key vec.Vector, r float32) vec.Vector {
					q := vec.Clone(key)
					vec.AXPY(q, r, vec.RandomUnit(rng, dim))
					return q
				}
				// lookup runs each of the cache's scans once, and the
				// oracle's once per scan, so DistComps stays comparable.
				lookup := func(op int, q vec.Vector) {
					t.Helper()
					for name, peek := range map[string]func() (float32, bool){
						"PeekAdmissible": func() (float32, bool) { return c.PeekAdmissible(q) },
						"TierGet": func() (float32, bool) {
							h, ok := c.TierGet(q)
							return h.Dist, ok
						},
					} {
						_, want, found := o.lookup(q)
						if d, ok := peek(); ok != found || math.Float32bits(d) != math.Float32bits(want) {
							t.Fatalf("op %d: %s = (%v, %v), oracle (%v, %v)", op, name, d, ok, want, found)
						}
					}
					i, _, found := o.lookup(q)
					docs, ok := c.Get(q)
					if ok != found || found && !slices.Equal(docs, o.lines[i].Docs) {
						t.Fatalf("op %d: Get = (%v, %v), oracle found %v", op, docs, ok, found)
					}
					o.serve(i)
				}

				for op := 0; op < ops; op++ {
					var key vec.Vector
					if len(keys) > 0 {
						key = keys[rng.IntN(len(keys))] // possibly evicted by now: then a plain miss
					}
					switch r := rng.IntN(10); {
					case key == nil || r == 0: // a fresh key near a centre
						put(vec.GaussianAround(rng, centres[rng.IntN(len(centres))], 0.2), tau)
					case r == 1: // a duplicate key: an exact tie for every later query
						put(key, tau)
					case r == 2: // a per-line tolerance, sometimes 0
						put(at(key, 1), float32(rng.IntN(3)))
					case r == 3: // a line that admits a chosen query exactly, and one that just does not
						q := at(key, 2)
						near := vec.GaussianAround(rng, q, 0.1)
						put(near, vec.L2(q, near))
						lookup(op, q)
						near = vec.GaussianAround(rng, q, 0.1)
						put(near, math.Nextafter32(vec.L2(q, near), 0))
						lookup(op, q)
					case r == 4: // the key itself: distance 0
						lookup(op, key)
					case r <= 7: // within a few ulps of τ, either side
						lookup(op, at(key, tau*(1+float32(rng.IntN(9)-4)*0x1p-23)))
					default: // anywhere around a centre
						lookup(op, vec.GaussianAround(rng, centres[rng.IntN(len(centres))], 0.3))
					}
				}

				if !sameEntries(evicted, o.evicted) {
					t.Fatalf("eviction order differs: %d victims, the oracle %d, or other ones", len(evicted), len(o.evicted))
				}
				if !sameEntries(c.Entries(), o.entries()) {
					t.Fatalf("final contents differ from the oracle's (%d vs %d lines)", c.Len(), len(o.lines))
				}
				s := c.Stats()
				if !reflect.DeepEqual(s, o.stats) {
					t.Fatalf("stats differ: cache %+v, oracle %+v", s, o.stats)
				}
				if s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 {
					t.Fatalf("stream exercised too little: %+v", s)
				}
			})
		}
	}
}

// dimsTouched reports how many leading floats vec.L2Bounded reads of
// (q, v) under maxDist: the end of the first 16-float stride at which the
// running sum trips the bound, or all of them. The kernel run on a
// prefix uses the same accumulators, so it abandons exactly when the
// full call abandons at or before that prefix's last stride — which
// makes "abandons on the first j strides" monotone in j and lets a
// binary search stand in for a counter inside the kernel.
func dimsTouched(q, v vec.Vector, maxDist float32) int {
	const stride = 16
	lo, hi := 1, (len(q)-1)/stride+1 // hi: no stride short of the end trips
	for lo < hi {
		mid := (lo + hi) / 2
		if _, ok := vec.L2Bounded(q[:mid*stride], v[:mid*stride], maxDist); ok {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return min(lo*stride, len(q))
}

// geometry is one clustered data set: centres, a corpus of documents
// around them, cache keys and queries drawn as perturbations of centres,
// and the cache tolerance.
type geometry struct {
	name          string
	tau           float32
	keys, queries []vec.Vector
	corpus        []vec.Vector
}

// benchGeometry is bench/gen.go's at reduced population: N(0, I) centres
// √(2d) ≈ 39 apart, queries 0.03·N(0, I) around them, documents
// 0.11·N(0, I), τ = 1.3 × the query–query distance within a centre — 25×
// below the distance to any other centre.
func benchGeometry(rng *rand.Rand, dim, centres, perCentre int) geometry {
	const sigmaQ, sigmaD = 0.03, 0.11
	g := geometry{name: "bench", tau: float32(1.3 * vec.ExpectedPairwiseL2(sigmaQ, dim))}
	for c := 0; c < centres; c++ {
		centre := vec.RandomGaussian(rng, dim)
		for i := 0; i < perCentre; i++ {
			g.corpus = append(g.corpus, vec.GaussianAround(rng, centre, sigmaD))
			g.keys = append(g.keys, vec.GaussianAround(rng, centre, sigmaQ))
		}
		g.queries = append(g.queries, vec.GaussianAround(rng, centre, sigmaQ))
	}
	return g
}

// hardGeometry is unit-norm data crowded the way real sentence
// embeddings are: every centre is one shared direction plus a
// perturbation, so each centre's nearest foreign centre — in fact every
// foreign centre — sits about 2.6 τ away (the test asserts ≤ 3 τ),
// against 25 τ in the bench geometry. Query and document noise keep the
// bench's proportions to τ.
func hardGeometry(t testing.TB, rng *rand.Rand, dim, centres, perCentre int) geometry {
	const (
		within = 0.15 // query–query distance inside a centre
		spread = 0.36 // centre perturbation; centres end up ≈ spread·√2 apart
	)
	sigmaQ := float32(within / math.Sqrt(2*float64(dim)))
	sigmaD := sigmaQ * 0.11 / 0.03
	g := geometry{name: "hard", tau: 1.3 * within}
	topic := vec.RandomUnit(rng, dim)
	cs := make([]vec.Vector, centres)
	for c := range cs {
		cs[c] = vec.Clone(topic)
		vec.AXPY(cs[c], spread, vec.RandomUnit(rng, dim))
		vec.Normalize(cs[c])
	}
	for c, centre := range cs {
		nearest := float32(math.Inf(1))
		for o, other := range cs {
			if o != c {
				nearest = min(nearest, vec.L2(centre, other))
			}
		}
		if nearest > 3*g.tau {
			t.Fatalf("hard geometry: centre %d's nearest foreign centre is %.3f away, above 3τ = %.3f", c, nearest, 3*g.tau)
		}
		for i := 0; i < perCentre; i++ {
			g.corpus = append(g.corpus, vec.Normalize(vec.GaussianAround(rng, centre, sigmaD)))
			g.keys = append(g.keys, vec.Normalize(vec.GaussianAround(rng, centre, sigmaQ)))
		}
		g.queries = append(g.queries, vec.Normalize(vec.GaussianAround(rng, centre, sigmaQ)))
	}
	return g
}

// TestDimensionsTouched measures what the benchmark's geometry hides:
// the mean number of dimensions the early-abandoning kernel reads per
// cached key (FlatCache's scan) and per index vector (FlatIndex.Search's
// seeded scan), on the bench geometry and on a crowded unit-norm one.
// The scans are replayed here with dimsTouched beside each kernel call;
// the replay is held to the real code's answer, and that answer to an
// unbounded brute force, so the numbers logged describe exact scans.
// Every float the index scan reads counts, in both passes and in the
// seeds it finishes.
func TestDimensionsTouched(t *testing.T) {
	const (
		dim       = 768
		centres   = 48
		perCentre = 6
		k         = 4
		seedsPerK = 4 // vectordb's
	)
	rng := vec.NewRand(23)
	for _, c := range []struct {
		g geometry
		// What the index scan seeded on a 32-float prefix read per
		// vector here, not even counting the k seeds it finished.
		maxVecDims float64
	}{
		{benchGeometry(rng, dim, centres, perCentre), 64},
		{hardGeometry(t, rng, dim, centres, perCentre), 437},
	} {
		g := c.g
		cache := mustFlat(t, dim, Options{Capacity: len(g.keys), Tolerance: g.tau})
		for i, key := range g.keys {
			cache.Put(key, []int{i})
		}
		index, err := vectordb.NewFlatFromVectors(g.corpus, vec.L2Distance)
		if err != nil {
			t.Fatal(err)
		}

		var keyDims, vecDims, hits int
		for qi, q := range g.queries {
			// FlatCache.scanAdmissible, replayed.
			best, bestDist := -1, float32(0)
			want, wantDist := -1, float32(0)
			for i, key := range g.keys {
				maxDist := g.tau
				if best >= 0 && bestDist < maxDist {
					maxDist = bestDist
				}
				keyDims += dimsTouched(q, key, maxDist)
				if d, ok := vec.L2Bounded(q, key, maxDist); ok && d <= g.tau && (best < 0 || d < bestDist) {
					best, bestDist = i, d
				}
				if d := vec.L2(q, key); d <= g.tau && (want < 0 || d < wantDist) {
					want, wantDist = i, d
				}
			}
			docs, ok := cache.Get(q)
			got := -1
			if ok {
				got = docs[0]
				hits++
			}
			if got != want || best != want || (want >= 0 && bestDist != wantDist) {
				t.Fatalf("%s query %d: cache served %d, replay %d at %v, brute force %d at %v",
					g.name, qi, got, best, bestDist, want, wantDist)
			}

			// FlatIndex.scanL2, replayed: pass 1 reads every head and
			// finishes the seedsPerK·k smallest under the k-th best so
			// far; pass 2 reads every other row's head again and, where
			// the head alone does not exceed the k-th best so far,
			// whatever vec.L2Bounded reads past it.
			var seed, top vec.TopKBuffer
			seed.Reset(seedsPerK * k)
			for id, v := range g.corpus {
				seed.Push(id, vec.L2SquaredHead(q, v))
				vecDims += vec.HeadLen
			}
			top.Reset(k)
			isSeed := make(map[int]bool)
			for _, s := range seed.Result() {
				v := g.corpus[s.ID]
				vecDims += dimsTouched(q, v, top.Worst())
				if d, ok := vec.L2Bounded(q, v, top.Worst()); ok {
					top.Push(s.ID, d)
				}
				isSeed[s.ID] = true
			}
			for id, v := range g.corpus {
				if isSeed[id] {
					continue
				}
				vecDims += vec.HeadLen
				if vec.L2SquaredHead(q, v) > vec.SquaredBound(top.Worst()) {
					continue
				}
				vecDims += dimsTouched(q, v, top.Worst()) - vec.HeadLen
				if d, ok := vec.L2Bounded(q, v, top.Worst()); ok {
					top.Push(id, d)
				}
			}
			found, err := index.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			brute := vec.TopKByDistance(q, g.corpus, k, vec.L2)
			if !slices.Equal(found, brute) || !slices.Equal(top.Result(), brute) {
				t.Fatalf("%s query %d: Search %v, replay %v, brute force %v", g.name, qi, found, top.Result(), brute)
			}
		}
		if hits == 0 {
			t.Fatalf("%s: %d of %d queries hit; the scan's winning path went unexercised", g.name, hits, len(g.queries))
		}
		perKey := float64(keyDims) / float64(len(g.queries)*len(g.keys))
		perVec := float64(vecDims) / float64(len(g.queries)*len(g.corpus))
		t.Logf("%s geometry (dim %d, τ %.3f, %d keys, %d vectors, k %d): %.1f dims per cached key, %.1f dims per index vector (of which %d in the seeding pass's heads)",
			g.name, dim, g.tau, len(g.keys), len(g.corpus), k, perKey, perVec, vec.HeadLen)
		// The unbounded kernel reads dim per key; a scan that read as
		// much has lost its bound. The index scan is also held to
		// maxVecDims, so a faster benchmark is not bought with more work
		// on crowded data.
		if perKey >= dim || perVec > c.maxVecDims {
			t.Errorf("%s: %.1f dims per key (unbounded: %d), %.1f per index vector (at most %.0f)",
				g.name, perKey, dim, perVec, c.maxVecDims)
		}
	}
}
