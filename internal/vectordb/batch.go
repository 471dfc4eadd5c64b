package vectordb

import (
	"fmt"

	"proximity/internal/vec"
)

// BatchDB extends DB with a batched search entry point. Batch-aware
// indexes amortize per-query overheads — the IVF index probes each
// coarse cell once per batch, the flat index validates once and reuses
// one scratch — which is what makes miss coalescing (internal/batch) pay
// off under concurrent load.
//
// Implementations must return results identical to issuing Search per
// query: same IDs, same distances, same (distance, ID) ordering. The
// miss-coalescing batch queue (internal/batch) relies on this
// equivalence to stay invisible to the retriever.
type BatchDB interface {
	DB
	// SearchBatch returns, for each query, its k nearest documents,
	// closest first. The result slice is parallel to qs.
	SearchBatch(qs []vec.Vector, k int) ([][]vec.Scored, error)
}

// SearchBatch serves a batch of queries through db, using the native
// batched path when the index implements BatchDB and falling back to one
// Search call per query otherwise. A nil or empty batch returns nil.
func SearchBatch(db DB, qs []vec.Vector, k int) ([][]vec.Scored, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if b, ok := db.(BatchDB); ok {
		return b.SearchBatch(qs, k)
	}
	return searchLoop(db, qs, k)
}

// Batched adapts any DB to BatchDB. Indexes that already implement the
// batched path are returned unchanged; everything else gets the generic
// per-query loop, so callers can depend on BatchDB uniformly.
func Batched(db DB) BatchDB {
	if b, ok := db.(BatchDB); ok {
		return b
	}
	return &loopBatch{db}
}

// loopBatch is the generic fallback wrapper for non-batch-aware backends.
type loopBatch struct {
	DB
}

// SearchBatch implements BatchDB by looping Search.
func (l *loopBatch) SearchBatch(qs []vec.Vector, k int) ([][]vec.Scored, error) {
	return searchLoop(l.DB, qs, k)
}

// searchLoop issues one Search per query; the first error aborts the
// whole batch so every waiter observes the same outcome.
func searchLoop(db DB, qs []vec.Vector, k int) ([][]vec.Scored, error) {
	out := make([][]vec.Scored, len(qs))
	for i, q := range qs {
		res, err := db.Search(q, k)
		if err != nil {
			return nil, fmt.Errorf("vectordb: batch query %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

var _ BatchDB = (*FlatIndex)(nil)

// SearchBatch returns the exact k nearest neighbors of every query: the
// whole batch is validated first, then Search's scan runs once per query
// over one pooled scratch, so results are Search's exactly. Interleaving
// the queries in one pass over the stored vectors would visit each row
// once per batch, but with no seeded bound, finishing most rows for
// every query; the seeded scan reads about two cache lines per row and
// query.
func (f *FlatIndex) SearchBatch(qs []vec.Vector, k int) ([][]vec.Scored, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	if len(f.vectors) == 0 {
		return nil, ErrEmptyIndex
	}
	for i, q := range qs {
		if len(q) != f.dim {
			return nil, fmt.Errorf("vectordb: batch query %d dim %d, index dim %d: %w",
				i, len(q), f.dim, vec.ErrDimensionMismatch)
		}
	}
	s := f.getScratch()
	out := make([][]vec.Scored, len(qs))
	for i, q := range qs {
		out[i] = f.search(q, k, s)
	}
	f.scratch.Put(s)
	return out, nil
}
