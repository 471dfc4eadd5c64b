package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"proximity/internal/vec"
)

// flatOracle is Algorithm 1 written as plainly as possible: the lines in
// scan order, each stamped with the logical time it was inserted (FIFO)
// or last served (LRU). A lookup is min-by-distance over every line,
// ties to the first scanned; the victim is the line with the oldest
// time, and the last line takes its place in the scan, as FlatCache's
// swap-remove does. Nil and wrong-length input is ignored.
type flatOracle struct {
	dim, capacity int
	lru           bool
	clock         int64
	lines         []oracleLine
	stats         Stats
	evicted       []Entry
}

type oracleLine struct {
	Entry
	time int64
}

func (o *flatOracle) put(key vec.Vector, docs []int, tol float32) {
	if len(key) != o.dim {
		return
	}
	if n := len(o.lines); n == o.capacity {
		v := 0
		for i, l := range o.lines {
			if l.time < o.lines[v].time {
				v = i
			}
		}
		o.evicted = append(o.evicted, o.lines[v].Entry)
		o.lines[v] = o.lines[n-1]
		o.lines = o.lines[:n-1]
		o.stats.Evictions++
	}
	o.clock++
	o.lines = append(o.lines, oracleLine{Entry{vec.Clone(key), slices.Clone(docs), tol}, o.clock})
	o.stats.Puts++
}

// lookup returns the index of the closest line whose tolerance admits q
// and its distance, or -1; found is false for input the cache ignores.
func (o *flatOracle) lookup(q vec.Vector) (best int, bestDist float32, found bool) {
	best = -1
	if len(q) != o.dim {
		return best, 0, false
	}
	for i, l := range o.lines {
		if d := vec.L2(q, l.Key); d <= l.Tol && (best < 0 || d < bestDist) {
			best, bestDist = i, d
		}
	}
	o.stats.DistComps += int64(len(o.lines))
	return best, bestDist, best >= 0
}

// serve counts a lookup's outcome on line i (-1: a miss), refreshing the
// line under LRU.
func (o *flatOracle) serve(i int) {
	if i < 0 {
		o.stats.Misses++
		return
	}
	o.stats.Hits++
	if o.lru {
		o.clock++
		o.lines[i].time = o.clock
	}
}

// entries lists the lines in eviction order: oldest time first.
func (o *flatOracle) entries() []Entry {
	lines := slices.SortedFunc(slices.Values(o.lines), func(a, b oracleLine) int { return cmp.Compare(a.time, b.time) })
	out := make([]Entry, len(lines))
	for i, l := range lines {
		out[i] = l.Entry
	}
	return out
}

// sameEntries compares two entry lists bit for bit.
func sameEntries(a, b []Entry) bool {
	bits := func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return slices.EqualFunc(x.Key, y.Key, bits) && slices.Equal(x.Docs, y.Docs) && bits(x.Tol, y.Tol)
	})
}

// TestFlatMatchesAlgorithm1 drives one seeded op stream through a
// FlatCache and the oracle, on both test geometries, at a width below
// vec.HeadLen (no heads), one with a tail past its strides, and the
// benchmark's, at capacity 16 (whole blocks of vec.NextHead's four
// heads) and 19 (a full cache ends in a three-head tail), and requires
// them to agree after every op: served docs, reported distances to the
// bit, Stats, Entries and the OnEvict stream. The stream mixes Put and
// PutWithTolerance (tolerance 0 and lines that admit a chosen query
// exactly, duplicate keys for exact ties), Get, TierGet with and
// without Commit, PeekAdmissible, wrong-length input, Clear, and
// WriteEntrySnapshot → replay into a fresh NewFlat.
func TestFlatMatchesAlgorithm1(t *testing.T) {
	const ops = 2000
	for _, dim := range []int{8, 40, 768} {
		for _, hard := range []bool{false, true} {
			for _, policy := range []Policy{FIFO, LRU} {
				for _, capacity := range []int{16, 19} {
					name := fmt.Sprintf("dim=%d/hard=%v/%v", dim, hard, policy)
					if capacity != 16 {
						name += fmt.Sprintf("/capacity=%d", capacity)
					}
					t.Run(name, func(t *testing.T) {
						rng := vec.NewRand(uint64(dim)*4 + uint64(policy))
						g := benchGeometry(rng, dim, 8, 6)
						if hard {
							g = hardGeometry(t, rng, dim, 8, 6)
						}
						o := &flatOracle{dim: dim, capacity: capacity, lru: policy == LRU}
						var evicted []Entry
						onEvict := func(e Entry) { evicted = append(evicted, e) }
						c := mustFlat(t, dim, Options{Capacity: capacity, Tolerance: g.tau, Policy: policy, OnEvict: onEvict})

						checked := 0 // victims already compared
						check := func(op int, what string) {
							t.Helper()
							if got := c.Stats(); !reflect.DeepEqual(got, o.stats) {
								t.Fatalf("op %d (%s): Stats %+v, oracle %+v", op, what, got, o.stats)
							}
							if c.Len() != len(o.lines) || !sameEntries(c.Entries(), o.entries()) {
								t.Fatalf("op %d (%s): Entries differ from the oracle's (%d vs %d lines)", op, what, c.Len(), len(o.lines))
							}
							if len(evicted) != len(o.evicted) || !sameEntries(evicted[checked:], o.evicted[checked:]) {
								t.Fatalf("op %d (%s): OnEvict saw %d victims, the oracle %d, or other ones", op, what, len(evicted), len(o.evicted))
							}
							checked = len(evicted)
						}
						nextDoc := 0
						put := func(key vec.Vector, tol float32) {
							docs := []int{nextDoc, -nextDoc}
							nextDoc++
							c.PutWithTolerance(key, docs, tol)
							o.put(key, docs, tol)
						}
						key := func() vec.Vector { // usually a cached key, when there is one
							if len(o.lines) > 0 && rng.IntN(4) > 0 {
								return o.lines[rng.IntN(len(o.lines))].Key
							}
							return g.keys[rng.IntN(len(g.keys))]
						}
						at := func(key vec.Vector, r float32, span int) vec.Vector { // ≈ r from key, moved in its first span floats
							q := vec.Clone(key)
							vec.AXPY(q[:span], r, vec.RandomUnit(rng, span))
							return q
						}
						query := func() vec.Vector {
							switch rng.IntN(4) {
							case 0:
								return key() // distance 0
							case 1: // within a few ulps of τ, either side; half of them all in the head
								span := dim
								if rng.IntN(2) == 0 {
									span = min(dim, vec.HeadLen)
								}
								return at(key(), g.tau*(1+float32(rng.IntN(9)-4)*0x1p-23), span)
							default:
								return g.queries[rng.IntN(len(g.queries))]
							}
						}
						get := func(op int, q vec.Vector) bool {
							t.Helper()
							i, _, found := o.lookup(q)
							docs, ok := c.Get(q)
							if ok != found || found && !slices.Equal(docs, o.lines[i].Docs) {
								t.Fatalf("op %d: Get = %v, %v; oracle %v", op, docs, ok, found)
							}
							if len(q) == dim {
								o.serve(i)
							}
							return ok
						}
						var hits, misses, commits int
						for op := 0; op < ops; op++ {
							var what string
							switch r := rng.IntN(40); {
							case r < 8:
								what = "Put"
								k, docs := g.keys[rng.IntN(len(g.keys))], []int{nextDoc}
								nextDoc++
								c.Put(k, docs)
								o.put(k, docs, g.tau)
							case r < 10:
								what = "Put of a cached key" // an exact tie for later queries
								put(key(), g.tau)
							case r < 12:
								what = "PutWithTolerance 0"
								put(key(), 0)
							case r < 14:
								what = "PutWithTolerance at a query's exact distance, and one ulp below"
								q := query()
								near := at(q, g.tau/2, dim)
								put(near, vec.L2(q, near))
								get(op, q)
								near = at(q, g.tau/2, dim)
								put(near, math.Nextafter32(vec.L2(q, near), 0))
								get(op, q)
							case r < 24:
								what = "Get"
								if get(op, query()) {
									hits++
								} else {
									misses++
								}
							case r < 30:
								what = "TierGet"
								q := query()
								i, d, found := o.lookup(q)
								h, ok := c.TierGet(q)
								if ok != found || found && (!slices.Equal(h.Docs, o.lines[i].Docs) || math.Float32bits(h.Dist) != math.Float32bits(d)) {
									t.Fatalf("op %d: TierGet = %v at %v, %v; oracle %v at %v", op, h.Docs, h.Dist, ok, found, d)
								}
								if ok && rng.IntN(2) == 0 {
									what = "TierGet and Commit"
									h.Commit()
									o.serve(i)
									commits++
								}
							case r < 33:
								what = "PeekAdmissible"
								q := query()
								_, d, found := o.lookup(q)
								if got, ok := c.PeekAdmissible(q); ok != found || math.Float32bits(got) != math.Float32bits(d) {
									t.Fatalf("op %d: PeekAdmissible = %v, %v; oracle %v, %v", op, got, ok, d, found)
								}
							case r < 36:
								what = "wrong-length input"
								bad := append(vec.Clone(query()), 1)
								if rng.IntN(2) == 0 {
									bad = bad[:dim-1]
								}
								put(bad, g.tau)
								get(op, bad)
								if _, ok := c.TierGet(bad); ok {
									t.Fatalf("op %d: TierGet of a %d-float query hit in a %d-float cache", op, len(bad), dim)
								}
								if _, ok := c.PeekAdmissible(bad); ok {
									t.Fatalf("op %d: PeekAdmissible of a %d-float query hit in a %d-float cache", op, len(bad), dim)
								}
							case r == 36 && rng.IntN(8) == 0:
								what = "Clear"
								c.Clear()
								o.lines = nil
							case r < 38:
								what = "WriteEntrySnapshot, replay into NewFlat"
								var buf bytes.Buffer
								if err := WriteEntrySnapshot(&buf, dim, c); err != nil {
									t.Fatal(err)
								}
								_, restored, err := ReadEntrySnapshot(&buf)
								if err != nil {
									t.Fatal(err)
								}
								c = mustFlat(t, dim, Options{Capacity: capacity, Tolerance: g.tau, Policy: policy, OnEvict: onEvict})
								for _, e := range restored {
									c.PutWithTolerance(e.Key, e.Docs, e.Tol)
								}
								// The restore replays the lines in eviction order
								// into a fresh cache, which counts one Put each.
								entries := o.entries()
								o.lines, o.stats = nil, Stats{}
								for _, e := range entries {
									o.put(e.Key, e.Docs, e.Tol)
								}
							default:
								what = "Get near a centre"
								get(op, g.queries[rng.IntN(len(g.queries))])
							}
							check(op, what)
						}
						if hits == 0 || misses == 0 || commits == 0 || len(evicted) == 0 {
							t.Fatalf("stream exercised too little: %d hits, %d misses, %d commits, %d evictions",
								hits, misses, commits, len(evicted))
						}
					})
				}
			}
		}
	}
}
