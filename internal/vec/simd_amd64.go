package vec

// haveAVX2 records, once, whether the CPU and the OS support AVX2
// (simd_amd64.s); without it the portable bodies run.
var haveAVX2 = cpuHasAVX2()

// scanBlocks returns the first of the whole blocks in heads with a
// surviving row (see Next), and that block's survivors, bit r for row r;
// when none has one, the block count and 0. len(bounds) is a multiple
// of BlockRows, len(q) at least HeadLen and len(heads) at least
// len(bounds)·HeadLen.
func scanBlocks(q, heads, bounds []float32, limit float32) (block int, mask uint32) {
	if haveAVX2 {
		return scanBlocksAVX2(q, heads, bounds, limit)
	}
	return scanBlocksGeneric(q, heads, bounds, limit)
}

// scanBlocksAVX2 is scanBlocks in AVX2 (simd_amd64.s).
//
//go:noescape
func scanBlocksAVX2(q, heads, bounds []float32, limit float32) (block int, mask uint32)

// finite is Finite's body.
func finite(v []float32) bool {
	if haveAVX2 {
		return finiteAVX2(v)
	}
	return finiteGeneric(v)
}

// finiteAVX2 is Finite in AVX2 (simd_amd64.s).
//
//go:noescape
func finiteAVX2(v []float32) bool

// cpuHasAVX2 reports CPUID's AVX2 flag, with the OS saving YMM state.
func cpuHasAVX2() bool
