//go:build !amd64

package vec

// nextHead4 is NextHead over whole blocks of four rows; without an
// assembly routine it is the portable body.
func nextHead4(q, heads, bounds []float32, limit float32) int {
	return nextHeadGeneric(q, heads, bounds, limit)
}
