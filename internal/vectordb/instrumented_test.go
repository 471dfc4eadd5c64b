package vectordb

import (
	"sync"
	"time"

	"proximity/internal/vec"
)

// The wrappers below have no caller outside the tests: the benchmarks
// time real searches, and metrics.Run counts database calls.

// RetrieveDocumentIndices adapts any DB to the paper's index-only call
// signature (Algorithm 1, line 6).
func RetrieveDocumentIndices(db DB, q vec.Vector, k int) ([]int, error) {
	res, err := db.Search(q, k)
	if err != nil {
		return nil, err
	}
	return vec.IDs(res), nil
}

// FixedLatency returns a constant duration per lookup.
type FixedLatency time.Duration

// Lookup implements LatencyModel.
func (f FixedLatency) Lookup() time.Duration { return time.Duration(f) }

// Instrumented wraps a DB, counting calls and accumulating the simulated
// service time of each lookup on a virtual clock. The RAG pipeline reads
// Calls() for the paper's "database calls" reduction numbers and
// SimulatedTime() for the latency columns.
type Instrumented struct {
	db    DB
	model LatencyModel

	mu       sync.Mutex
	calls    int
	simTotal time.Duration
	lastSim  time.Duration
}

var _ DB = (*Instrumented)(nil)

// NewInstrumented wraps db with call counting; model may be nil, in which
// case lookups contribute zero simulated time.
func NewInstrumented(db DB, model LatencyModel) *Instrumented {
	return &Instrumented{db: db, model: model}
}

// Search delegates to the wrapped index, recording the call.
func (i *Instrumented) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	res, err := i.db.Search(q, k)
	if err != nil {
		return nil, err
	}
	var sim time.Duration
	if i.model != nil {
		sim = i.model.Lookup()
	}
	i.mu.Lock()
	i.calls++
	i.simTotal += sim
	i.lastSim = sim
	i.mu.Unlock()
	return res, err
}

// Dim returns the wrapped index dimensionality.
func (i *Instrumented) Dim() int { return i.db.Dim() }

// Len returns the wrapped index size.
func (i *Instrumented) Len() int { return i.db.Len() }

// Calls returns the number of Search calls that reached the database.
func (i *Instrumented) Calls() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.calls
}

// SimulatedTime returns the accumulated simulated service time.
func (i *Instrumented) SimulatedTime() time.Duration {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.simTotal
}

// LastLookupTime returns the simulated time of the most recent lookup.
func (i *Instrumented) LastLookupTime() time.Duration {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.lastSim
}

// Reset zeroes the counters.
func (i *Instrumented) Reset() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.calls = 0
	i.simTotal = 0
	i.lastSim = 0
}

// Unwrap returns the underlying DB (e.g. to reach a VectorSource).
func (i *Instrumented) Unwrap() DB { return i.db }
