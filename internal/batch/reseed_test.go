package batch_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"proximity/internal/batch"
	"proximity/internal/vec"
)

// TestCoalescerSetKey: a swapped key function takes effect for
// subsequent searches without disturbing the counters.
func TestCoalescerSetKey(t *testing.T) {
	inner := searcherFunc(func(q vec.Vector, k int) ([]vec.Scored, error) {
		return []vec.Scored{{ID: 1}}, nil
	})
	var aCalls, bCalls atomic.Int64
	keyA := func(vec.Vector) uint32 { aCalls.Add(1); return 1 }
	keyB := func(vec.Vector) uint32 { bCalls.Add(1); return 2 }

	co, err := batch.NewCoalescer(inner, keyA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Search(vec.Vector{1}, 1); err != nil {
		t.Fatal(err)
	}
	if aCalls.Load() != 1 {
		t.Fatalf("initial key called %d times, want 1", aCalls.Load())
	}
	co.SetKey(keyB)
	co.SetKey(nil) // ignored: a coalescer must always have a key
	if _, err := co.Search(vec.Vector{2}, 1); err != nil {
		t.Fatal(err)
	}
	if aCalls.Load() != 1 || bCalls.Load() != 1 {
		t.Fatalf("after SetKey: keyA %d calls, keyB %d calls; want 1 and 1",
			aCalls.Load(), bCalls.Load())
	}
	if st := co.Stats(); st.Leads != 2 {
		t.Errorf("Leads = %d, want 2", st.Leads)
	}
}

// searcherFunc adapts a function to batch.Searcher.
type searcherFunc func(q vec.Vector, k int) ([]vec.Scored, error)

func (f searcherFunc) Search(q vec.Vector, k int) ([]vec.Scored, error) { return f(q, k) }

// TestPipelineReseed: re-drawing the CoalesceLSH signature leaves the
// pipeline an invisible layer (results still match direct search), and
// non-LSH modes treat Reseed as a no-op.
func TestPipelineReseed(t *testing.T) {
	ix := buildIVF(t, 100, 8, 5)
	pipe, err := batch.New(ix, batch.Options{
		Coalesce:      batch.CoalesceLSH,
		SignatureBits: 6,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}

	q := vec.RandomGaussian(vec.NewRand(9), 8)
	want, err := ix.Search(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Reseed(42); err != nil {
		t.Fatal(err)
	}
	got, err := pipe.Search(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-reseed search = %v, want %v", got, want)
	}

	exact, err := batch.New(ix, batch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.Reseed(42); err != nil {
		t.Errorf("Reseed on an exact-mode pipeline should be a no-op, got %v", err)
	}
}
