//go:build race

package experiments

// raceEnabled gates the wall-clock shape assertions: race
// instrumentation slows Go code such as LSH's hashing but not the
// assembly kernels FLAT's scan runs on, which skews timings between the
// variants. The operation-count assertions hold either way.
const raceEnabled = true
