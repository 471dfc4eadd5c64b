//go:build !amd64

package vec

// scanBlocks returns the first of the whole blocks in heads with a
// surviving row (see Next), and that block's survivors; without an
// assembly routine it is the portable body.
func scanBlocks(q, heads, bounds []float32, limit float32) (block int, mask uint32) {
	return scanBlocksGeneric(q, heads, bounds, limit)
}

// finite is Finite's body; without an assembly routine it is the
// portable one.
func finite(v []float32) bool { return finiteGeneric(v) }
