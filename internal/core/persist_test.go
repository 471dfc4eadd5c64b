package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"proximity/internal/vec"
)

func TestFlatSnapshotRoundTrip(t *testing.T) {
	orig := mustFlat(t, 2, Options{Capacity: 4, Tolerance: 1.5, Policy: LRU})
	orig.Put(vec.Vector{0, 0}, []int{1, 2})
	orig.Put(vec.Vector{10, 0}, []int{3})
	orig.PutWithTolerance(vec.Vector{20, 0}, []int{4}, 0.25)

	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFlatSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 3 {
		t.Fatalf("restored Len = %d", restored.Len())
	}
	if restored.Capacity() != 4 || restored.Tolerance() != 1.5 || restored.Policy() != LRU {
		t.Error("options not preserved")
	}
	// Content behaves identically.
	if docs, ok := restored.Get(vec.Vector{0.5, 0}); !ok || docs[0] != 1 {
		t.Errorf("restored Get = %v %v", docs, ok)
	}
	// Per-line tolerances survive: the 0.25-line rejects a 0.5 query.
	if _, ok := restored.Get(vec.Vector{20.5, 0}); ok {
		t.Error("per-line tolerance lost on reload")
	}
	if docs, ok := restored.Get(vec.Vector{20.1, 0}); !ok || docs[0] != 4 {
		t.Errorf("tight line should still serve close queries: %v %v", docs, ok)
	}
	// Counters restart.
	if s := restored.Stats(); s.Puts != 0 {
		t.Errorf("restored counters = %+v, want clean", s)
	}
}

func TestFlatSnapshotPreservesEvictionOrder(t *testing.T) {
	orig := mustFlat(t, 1, Options{Capacity: 3, Tolerance: 0.1, Policy: FIFO})
	orig.Put(vec.Vector{0}, []int{0})
	orig.Put(vec.Vector{10}, []int{1})
	orig.Put(vec.Vector{20}, []int{2})

	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFlatSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Next insert must evict {0}, the original front.
	restored.Put(vec.Vector{30}, []int{3})
	if _, ok := restored.Get(vec.Vector{0}); ok {
		t.Error("eviction order lost: oldest entry survived")
	}
	if _, ok := restored.Get(vec.Vector{10}); !ok {
		t.Error("second-oldest entry should survive")
	}
}

func TestLSHSnapshotRoundTrip(t *testing.T) {
	orig := mustLSH(t, 16, LSHOptions{
		Bits: 6, BucketCapacity: 4, Tolerance: 1, Policy: LRU, Seed: 77, Probes: 3,
	})
	rng := vec.NewRand(5)
	keys := make([]vec.Vector, 30)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomUnit(rng, 16), 10)
		orig.Put(keys[i], []int{i})
	}

	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadLSHSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != orig.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), orig.Len())
	}
	if restored.Bits() != 6 || restored.BucketCapacity() != 4 || restored.Probes() != 3 {
		t.Error("options not preserved")
	}
	// Same seed → same buckets → identical behavior on every key.
	if restored.BucketsUsed() != orig.BucketsUsed() {
		t.Errorf("bucket layout changed: %d vs %d", restored.BucketsUsed(), orig.BucketsUsed())
	}
	for i, k := range keys {
		od, oOK := orig.Get(k)
		rd, rOK := restored.Get(k)
		if oOK != rOK {
			t.Fatalf("key %d: hit divergence (orig %v, restored %v)", i, oOK, rOK)
		}
		if oOK && od[0] != rd[0] {
			t.Fatalf("key %d: docs diverge (%v vs %v)", i, od, rd)
		}
	}
}

func TestSnapshotDecodeErrors(t *testing.T) {
	if _, err := ReadFlatSnapshot(strings.NewReader("not gob")); err == nil {
		t.Error("garbage flat snapshot should error")
	}
	if _, err := ReadLSHSnapshot(strings.NewReader("not gob")); err == nil {
		t.Error("garbage lsh snapshot should error")
	}
	// A flat snapshot is not an LSH snapshot: it decodes (gob matches
	// by field name) but rebuilding fails on the zero Bits field.
	flat := mustFlat(t, 2, Options{Capacity: 2, Tolerance: 1})
	flat.Put(vec.Vector{1, 1}, []int{1})
	var buf bytes.Buffer
	if err := flat.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLSHSnapshot(&buf); err == nil {
		t.Error("flat snapshot should not load as an LSH cache")
	}
}

func TestSnapshotEmptyCache(t *testing.T) {
	orig := mustFlat(t, 3, Options{Capacity: 2, Tolerance: 1})
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFlatSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 0 {
		t.Errorf("empty snapshot restored %d entries", restored.Len())
	}
	// Still usable.
	restored.Put(vec.Vector{1, 2, 3}, []int{9})
	if _, ok := restored.Get(vec.Vector{1, 2, 3}); !ok {
		t.Error("restored empty cache unusable")
	}
}

// Legacy headerless (v0) snapshots — written before the magic/version
// header existed — must still load.
func TestSnapshotLegacyHeaderlessRead(t *testing.T) {
	orig := mustFlat(t, 2, Options{Capacity: 4, Tolerance: 1})
	orig.Put(vec.Vector{1, 2}, []int{7})
	var headered bytes.Buffer
	if err := orig.WriteSnapshot(&headered); err != nil {
		t.Fatal(err)
	}
	// Strip the header to reconstruct what a v0 writer produced.
	legacy := bytes.NewReader(headered.Bytes()[len(snapshotMagic)+1:])
	restored, err := ReadFlatSnapshot(legacy)
	if err != nil {
		t.Fatalf("legacy read: %v", err)
	}
	if docs, ok := restored.Get(vec.Vector{1, 2}); !ok || docs[0] != 7 {
		t.Fatalf("legacy restore Get = %v %v", docs, ok)
	}
}

// Snapshots from a newer format generation are rejected with the typed
// error, not fed to gob.
func TestSnapshotFutureFormatVersion(t *testing.T) {
	future := append(append([]byte(nil), snapshotMagic...), 0xFF, 1, 2, 3)
	if _, err := ReadFlatSnapshot(bytes.NewReader(future)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("flat err = %v, want ErrSnapshotVersion", err)
	}
	if _, err := ReadLSHSnapshot(bytes.NewReader(future)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("lsh err = %v, want ErrSnapshotVersion", err)
	}
	if _, _, err := ReadEntrySnapshot(bytes.NewReader(future)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("entry err = %v, want ErrSnapshotVersion", err)
	}
}

// A snapshot records the metric its cache compared keys by. Caches compare
// by L2 only, so 0 (not recorded) and 1 (L2) load, and a cosine (2) or
// inner-product (3) snapshot is refused as an incompatible version. The
// writers keep recording 1, which older builds read as L2.
func TestSnapshotMetric(t *testing.T) {
	for _, tt := range []struct {
		metric int
		ok     bool
	}{{0, true}, {1, true}, {2, false}, {3, false}} {
		t.Run(fmt.Sprint(tt.metric), func(t *testing.T) {
			keys, docs, tols := []vec.Vector{{1, 2}}, [][]int{{7}}, []float32{1}
			var flat, lsh bytes.Buffer
			if err := encodeSnapshot(&flat, flatSnapshot{
				Version: snapshotVersion, Dim: 2, Capacity: 2, Tolerance: 1, Metric: tt.metric, Policy: int(FIFO),
				Keys: keys, Docs: docs, Tols: tols,
			}); err != nil {
				t.Fatal(err)
			}
			if err := encodeSnapshot(&lsh, lshSnapshot{
				Version: snapshotVersion, Dim: 2, Bits: 2, BucketCapacity: 2, Tolerance: 1, Metric: tt.metric, Policy: int(FIFO),
				Keys: keys, Docs: docs, Tols: tols,
			}); err != nil {
				t.Fatal(err)
			}
			_, flatErr := ReadFlatSnapshot(&flat)
			_, lshErr := ReadLSHSnapshot(&lsh)
			for name, err := range map[string]error{"flat": flatErr, "lsh": lshErr} {
				if tt.ok && err != nil || !tt.ok && !errors.Is(err, ErrSnapshotVersion) {
					t.Errorf("%s snapshot with metric %d: err = %v", name, tt.metric, err)
				}
			}
		})
	}
	var buf bytes.Buffer
	if err := mustFlat(t, 2, Options{Capacity: 2}).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap flatSnapshot
	if err := decodeSnapshot(&buf, &snap); err != nil || snap.Metric != 1 {
		t.Fatalf("written metric = %d, %v; want 1 (L2)", snap.Metric, err)
	}
}

// A Dim above maxSnapshotDim is corruption, refused before anything is
// sized by it: an LSH snapshot of a few hundred bytes declaring Dim 2²⁶
// would otherwise draw a 256 MB hyperplane.
func TestSnapshotHugeDimIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, lshSnapshot{
		Version: snapshotVersion, Dim: 1 << 26, Bits: 1, BucketCapacity: 1, Tolerance: 1, Metric: 1, Policy: int(FIFO),
	}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadLSHSnapshot(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("an LSH snapshot declaring dim 2²⁶ loaded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("refusing a %d-byte snapshot allocated %d bytes", len(data), n)
	}
	if _, err := ReadFlatSnapshot(bytes.NewReader(data)); err == nil {
		t.Error("the same header loaded as a flat snapshot")
	}
	if _, _, err := ReadEntrySnapshot(bytes.NewReader(data)); err == nil {
		t.Error("the same header loaded as an entry snapshot")
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to the three snapshot readers.
// None may panic, and a snapshot one of them accepts must describe a
// consistent cache: every key Dim floats long, no more entries than the
// capacity.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(name string, c Cache, dim int) {
			for i, e := range c.(EntrySource).Entries() {
				if len(e.Key) != dim {
					t.Fatalf("%s: entry %d has %d floats in a dim-%d cache", name, i, len(e.Key), dim)
				}
			}
			if c.Len() > c.Capacity() {
				t.Fatalf("%s: %d entries over capacity %d", name, c.Len(), c.Capacity())
			}
		}
		if c, err := ReadFlatSnapshot(bytes.NewReader(data)); err == nil {
			check("flat", c, c.dim)
		}
		if c, err := ReadLSHSnapshot(bytes.NewReader(data)); err == nil {
			check("lsh", c, c.hasher.Dim())
		}
		if dim, entries, err := ReadEntrySnapshot(bytes.NewReader(data)); err == nil {
			for i, e := range entries {
				if len(e.Key) != dim {
					t.Fatalf("entry: entry %d has %d floats in a dim-%d snapshot", i, len(e.Key), dim)
				}
			}
		}
	})
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("first"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A failed write leaves the previous file untouched and no temp files.
	boom := errors.New("boom")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "first" {
		t.Fatalf("file = %q, %v; want untouched", got, err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("dir has %d files, want 1 (no temp leftovers)", len(files))
	}
}

// Round-trip property (entry snapshot): enumerating any cache variant,
// serializing, and replaying into a fresh cache of the same variant
// preserves entries, per-line tolerances, and eviction order.
func TestEntrySnapshotRoundTripVariants(t *testing.T) {
	const (
		dim = 6
		cap = 24
		tol = 1.2
	)
	fill := func(c Cache, rng interface{ Float64() float64 }, keys []vec.Vector) {
		for i, k := range keys {
			c.PutWithTolerance(k, []int{i, i * 3}, tol*float32(0.5+rng.Float64()))
		}
	}
	genKeys := func(seed uint64, n int) []vec.Vector {
		rng := vec.NewRand(seed)
		out := make([]vec.Vector, n)
		for i := range out {
			out[i] = vec.Scale(vec.RandomGaussian(rng, dim), 2)
		}
		return out
	}
	sameEntries := func(t *testing.T, a, b []Entry, ordered bool) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("entry count %d vs %d", len(a), len(b))
		}
		key := func(e Entry) string {
			return fmt.Sprintf("%v|%v|%v", e.Key, e.Docs, e.Tol)
		}
		if ordered {
			for i := range a {
				if key(a[i]) != key(b[i]) {
					t.Fatalf("entry %d diverged:\n%s\nvs\n%s", i, key(a[i]), key(b[i]))
				}
			}
			return
		}
		as, bs := make([]string, len(a)), make([]string, len(b))
		for i := range a {
			as[i], bs[i] = key(a[i]), key(b[i])
		}
		sort.Strings(as)
		sort.Strings(bs)
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("entry sets diverge at %d:\n%s\nvs\n%s", i, as[i], bs[i])
			}
		}
	}
	cases := []struct {
		name    string
		make    func() Cache
		ordered bool // variant enumerates in a deterministic eviction order
	}{
		{"flat", func() Cache {
			return mustFlat(t, dim, Options{Capacity: cap, Tolerance: tol, Policy: LRU})
		}, true},
		{"lsh", func() Cache {
			return mustLSH(t, dim, LSHOptions{Bits: 3, BucketCapacity: 4, Tolerance: tol, Seed: 5})
		}, false},
		{"indexed", func() Cache {
			c, err := NewIndexed(dim, IndexedOptions{Capacity: cap, Tolerance: tol, Policy: LRU, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := vec.NewRand(77)
			keys := genKeys(101, 40) // overfill to exercise eviction order
			orig := tc.make()
			fill(orig, rng, keys)
			src, ok := orig.(EntrySource)
			if !ok {
				t.Fatalf("%T does not enumerate entries", orig)
			}
			var buf bytes.Buffer
			if err := WriteEntrySnapshot(&buf, dim, src); err != nil {
				t.Fatal(err)
			}
			gotDim, entries, err := ReadEntrySnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if gotDim != dim {
				t.Fatalf("dim = %d", gotDim)
			}
			fresh := tc.make()
			for _, e := range entries {
				fresh.PutWithTolerance(e.Key, e.Docs, e.Tol)
			}
			sameEntries(t, src.Entries(), fresh.(EntrySource).Entries(), tc.ordered)
			if orig.Len() != fresh.Len() {
				t.Fatalf("Len %d vs %d", orig.Len(), fresh.Len())
			}
		})
	}
}
