package vec

// NextHead is the head test of a threshold scan over a dense head
// array, run for many rows at once: heads holds row i's first HeadLen
// floats at heads[i·HeadLen:], and row i survives when its head sum h =
// L2SquaredHead(q, heads[i·HeadLen:]) satisfies !(h > bounds[i]) and
// !(h > limit). It returns the first surviving row, or len(bounds) when
// none does. A scan keeps bounds[i] = SquaredBound(row i's threshold)
// and limit = SquaredBound(best distance so far), finishes each
// survivor with L2Bounded and resumes after it; by SquaredBound's
// monotonicity that skips exactly the rows L2Bounded would abandon at
// its first check.
//
// On amd64 whole blocks of four rows go through an SSE2 routine whose
// sums are bit-identical to L2SquaredHead's (see nexthead_amd64.s); the
// rest, and every row elsewhere, through nextHeadGeneric. It panics if
// q is shorter than HeadLen or heads than len(bounds)·HeadLen.
//
//proximity:hotpath
func NextHead(q, heads, bounds []float32, limit float32) int {
	q, heads = q[:HeadLen], heads[:len(bounds)*HeadLen]
	whole := len(bounds) &^ 3
	if i := nextHead4(q, heads, bounds[:whole], limit); i < whole {
		return i
	}
	return whole + nextHeadGeneric(q, heads[whole*HeadLen:], bounds[whole:], limit)
}

// nextHeadGeneric is NextHead's portable body and its reference: one
// L2SquaredHead per row, in row order.
func nextHeadGeneric(q, heads, bounds []float32, limit float32) int {
	for i, b := range bounds {
		if h := L2SquaredHead(q, heads[i*HeadLen:]); !(h > b) && !(h > limit) {
			return i
		}
	}
	return len(bounds)
}
