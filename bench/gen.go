package main

import (
	"math"
	"math/rand/v2"
	"sort"

	"proximity/internal/vec"
)

// params fixes one benchmark size. fullParams is what BENCHMARK.json
// measures; quickParams is the seconds-long shape bench_test.go runs.
// The constants were calibrated once (see README.md, "Calibration") and
// are frozen: changing one re-bases every number measured so far.
type params struct {
	dim           int
	centres       int // question population the streams draw from
	docsPerCentre int // corpus size = centres × docsPerCentre
	k             int // documents per retrieval

	sigmaQ    float64 // per-dimension noise of a query around its centre
	sigmaD    float64 // per-dimension noise of a document around its centre
	tauFactor float64 // τ = tauFactor × expected query–query distance within a centre
	zipfS     float64 // skew of the zipf stream

	flatCap   int // FLAT capacity c (zipf_flat, cold_flat)
	hotCap    int // zipf_tiered hot tier
	warmCap   int // zipf_tiered warm tier
	lshShards int // zipf_lsh_http
	lshBits   int
	lshBucket int

	warmup     int // stream queries replayed untimed before a run
	coldReask  int // cold stream: every coldReask-th query re-asks a recent centre
	coldLag    int // … the centre first asked coldLag queries earlier
	l2Vectors  int // vec.l2 probe: distinct vectors per sweep
	heapProbeN int // core.heap_bytes_per_entry probe: entries filled
}

func fullParams() params {
	return params{
		dim: 768, centres: 2500, docsPerCentre: 8, k: 4,
		sigmaQ: 0.03, sigmaD: 0.11, tauFactor: 1.3, zipfS: 0.8,
		flatCap: 1000, hotCap: 40, warmCap: 960,
		lshShards: 2, lshBits: 5, lshBucket: 20,
		warmup: 3000, coldReask: 10, coldLag: 45,
		l2Vectors: 4096, heapProbeN: 1000,
	}
}

func quickParams() params {
	return params{
		dim: 64, centres: 62, docsPerCentre: 8, k: 4,
		sigmaQ: 0.03, sigmaD: 0.11, tauFactor: 1.6, zipfS: 0.8,
		flatCap: 25, hotCap: 4, warmCap: 21,
		lshShards: 2, lshBits: 3, lshBucket: 4,
		warmup: 100, coldReask: 10, coldLag: 5,
		l2Vectors: 256, heapProbeN: 100,
	}
}

// tau is the cache tolerance: a fixed multiple of the distance two
// perturbations of one centre sit apart (σq·√(2d)), far below the
// distance between centres (√(2d)), so a query matches earlier
// occurrences of its own centre and never another's.
func (p params) tau() float32 {
	return float32(p.tauFactor * p.sigmaQ * math.Sqrt(2*float64(p.dim)))
}

// stream names the two query sequences the workloads replay.
type stream int

const (
	// streamZipf draws each query's centre Zipf(zipfS) from the
	// population: the paper's MedRAG-Zipf shape.
	streamZipf stream = iota
	// streamCold sweeps the population cyclically in a fixed shuffled
	// order, so under LRU the next centre's previous occurrence was
	// evicted long ago, and re-asks a recent centre every coldReask-th
	// query so that hit latency stays measurable.
	streamCold
)

// inputs is everything a run feeds the system, a pure function of
// (seed, params): the centres, the corpus clustered around them, and
// the two lazily generated query streams.
type inputs struct {
	p       params
	seed    uint64
	centres []vec.Vector
	corpus  []vec.Vector // document id = centre×docsPerCentre + r
	zipfCDF []float64
	sweep   []int32 // streamCold's cyclic order
	dist    vec.DistanceFunc
}

// Salts keep the PCG streams of the generator's parts apart.
const (
	saltCentres = 0x63656e74
	saltCorpus  = 0x636f7270
	saltSweep   = 0x73776565
	saltQuery   = 0x71756572
)

func genInputs(seed uint64, p params) *inputs {
	in := &inputs{p: p, seed: seed, dist: vec.L2Distance.Func()}

	rng := rand.New(rand.NewPCG(seed, saltCentres))
	in.centres = make([]vec.Vector, p.centres)
	for j := range in.centres {
		in.centres[j] = gaussian(rng, nil, 1, p.dim)
	}

	rng = rand.New(rand.NewPCG(seed, saltCorpus))
	in.corpus = make([]vec.Vector, 0, p.centres*p.docsPerCentre)
	for j := range in.centres {
		for r := 0; r < p.docsPerCentre; r++ {
			in.corpus = append(in.corpus, gaussian(rng, in.centres[j], p.sigmaD, p.dim))
		}
	}

	in.zipfCDF = make([]float64, p.centres)
	var sum float64
	for r := range in.zipfCDF {
		sum += math.Pow(float64(r+1), -p.zipfS)
		in.zipfCDF[r] = sum
	}
	for r := range in.zipfCDF {
		in.zipfCDF[r] /= sum
	}

	rng = rand.New(rand.NewPCG(seed, saltSweep))
	in.sweep = make([]int32, p.centres)
	for j := range in.sweep {
		in.sweep[j] = int32(j)
	}
	rng.Shuffle(len(in.sweep), func(a, b int) { in.sweep[a], in.sweep[b] = in.sweep[b], in.sweep[a] })
	return in
}

// gaussian returns centre + sigma·N(0, I) (centre nil means the origin).
// vec has the same helpers; bench keeps its own so that an edit there
// cannot silently change the inputs every baseline was measured on.
func gaussian(rng *rand.Rand, centre vec.Vector, sigma float64, dim int) vec.Vector {
	v := make(vec.Vector, dim)
	for i := range v {
		v[i] = float32(sigma * rng.NormFloat64())
	}
	if centre != nil {
		for i := range v {
			v[i] += centre[i]
		}
	}
	return v
}

// query writes stream query i into buf and returns its centre. Every
// query is a unique perturbation of its centre — the streams hold no
// exact repeats — and depends only on (seed, stream, i), so clients may
// draw indices in any order.
func (in *inputs) query(s stream, i int, buf vec.Vector) (centre int) {
	rng := rand.New(rand.NewPCG(in.seed^(saltQuery+uint64(s)), uint64(i)))
	switch s {
	case streamZipf:
		centre = sort.SearchFloat64s(in.zipfCDF, rng.Float64())
		if centre >= len(in.centres) {
			centre = len(in.centres) - 1
		}
	case streamCold:
		centre = in.coldCentre(i)
	}
	c := in.centres[centre]
	for d := range buf {
		buf[d] = c[d] + float32(in.p.sigmaQ*rng.NormFloat64())
	}
	return centre
}

// coldCentre is streamCold's schedule: position i re-asks the centre of
// position i−coldLag when i is a re-ask slot, and otherwise takes the
// next centre of the cyclic sweep.
func (in *inputs) coldCentre(i int) int {
	p := in.p
	if i%p.coldReask == p.coldReask-1 && i >= p.coldLag {
		i -= p.coldLag // never itself a re-ask slot: coldLag is not a multiple of coldReask
	}
	fresh := i - i/p.coldReask // sweep positions consumed before i
	return int(in.sweep[fresh%len(in.sweep)])
}

// exactTopK is the ground truth: the k nearest documents to q, closest
// first. Centres are so far apart next to the document noise that the
// nearest documents of a query all belong to its own centre, so ranking
// that centre's documents is exact; every miss of a run re-proves it,
// since a miss serves vectordb.FlatIndex.Search's answer and must equal
// this one.
func (in *inputs) exactTopK(q vec.Vector, centre int, scratch []vec.Scored) []vec.Scored {
	m := in.p.docsPerCentre
	scratch = scratch[:0]
	for r := 0; r < m; r++ {
		id := centre*m + r
		s := vec.Scored{ID: id, Dist: in.dist(q, in.corpus[id])}
		at := len(scratch)
		scratch = append(scratch, s)
		for ; at > 0 && scratch[at-1].Dist > s.Dist; at-- {
			scratch[at] = scratch[at-1]
		}
		scratch[at] = s
	}
	return scratch[:in.p.k]
}
