package vec

// nextHead4 is NextHead over whole blocks of four rows, in SSE2
// (nexthead_amd64.s): len(bounds) is a multiple of four, len(q) is at
// least HeadLen and len(heads) at least len(bounds)·HeadLen.
//
//go:noescape
func nextHead4(q, heads, bounds []float32, limit float32) int
