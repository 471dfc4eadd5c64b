package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"proximity/internal/vec"
)

// saveAndLoad writes src's entries to a file through SaveSnapshot and
// replays them into dst through LoadSnapshot, returning the replay count.
func saveAndLoad(t *testing.T, dim int, src, dst Cache) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := SaveSnapshot(path, dim, src); err != nil {
		t.Fatal(err)
	}
	n, err := LoadSnapshot(path, dim, dst)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// encodeEntrySnapshot writes snap with the current header, as
// WriteEntrySnapshot would, so tests can forge payload fields.
func encodeEntrySnapshot(t *testing.T, snap entrySnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSnapshotHeader(&buf); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corpusInput returns the bytes of a committed FuzzReadSnapshot corpus
// file. Several were written by the per-variant FLAT and LSH writers
// older builds had, so they pin that those files stay readable.
func corpusInput(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzReadSnapshot", name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

func TestFlatSnapshotRoundTrip(t *testing.T) {
	opts := Options{Capacity: 4, Tolerance: 1.5, Policy: LRU}
	orig := mustFlat(t, 2, opts)
	orig.Put(vec.Vector{0, 0}, []int{1, 2})
	orig.Put(vec.Vector{10, 0}, []int{3})
	orig.PutWithTolerance(vec.Vector{20, 0}, []int{4}, 0.25)

	restored := mustFlat(t, 2, opts)
	if n := saveAndLoad(t, 2, orig, restored); n != 3 || restored.Len() != 3 {
		t.Fatalf("restored %d entries, Len = %d", n, restored.Len())
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
	// The replay is counted as the Puts it made.
	if s := restored.Stats(); s.Puts != 3 || s.Evictions != 0 {
		t.Errorf("restored counters = %+v, want 3 Puts", s)
	}
}

func TestFlatSnapshotPreservesEvictionOrder(t *testing.T) {
	opts := Options{Capacity: 3, Tolerance: 0.1, Policy: FIFO}
	orig := mustFlat(t, 1, opts)
	orig.Put(vec.Vector{0}, []int{0})
	orig.Put(vec.Vector{10}, []int{1})
	orig.Put(vec.Vector{20}, []int{2})

	restored := mustFlat(t, 1, opts)
	saveAndLoad(t, 1, orig, restored)
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
	opts := LSHOptions{Bits: 6, BucketCapacity: 4, Tolerance: 1, Policy: LRU, Seed: 77, Probes: 3}
	orig := mustLSH(t, 16, opts)
	rng := vec.NewRand(5)
	keys := make([]vec.Vector, 30)
	for i := range keys {
		keys[i] = vec.Scale(vec.RandomUnit(rng, 16), 10)
		orig.Put(keys[i], []int{i})
	}

	restored := mustLSH(t, 16, opts)
	if n := saveAndLoad(t, 16, orig, restored); n != orig.Len() || restored.Len() != orig.Len() {
		t.Fatalf("restored %d entries, Len = %d, want %d", n, restored.Len(), orig.Len())
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
	if _, _, err := ReadEntrySnapshot(strings.NewReader("not gob")); err == nil {
		t.Error("a garbage snapshot should error")
	}
	path := filepath.Join(t.TempDir(), "garbage.snap")
	if err := os.WriteFile(path, []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustFlat(t, 2, Options{Capacity: 2, Tolerance: 1})
	if n, err := LoadSnapshot(path, 2, c); err == nil || !strings.Contains(err.Error(), path) || n != 0 || c.Len() != 0 {
		t.Errorf("LoadSnapshot of garbage = %d, %v; want an error naming %s and nothing replayed", n, err, path)
	}
	// The format carries no variant: a FLAT cache's snapshot restores
	// into an LSH cache.
	flat := mustFlat(t, 2, Options{Capacity: 2, Tolerance: 1})
	flat.Put(vec.Vector{1, 1}, []int{1})
	lsh := mustLSH(t, 2, LSHOptions{Bits: 2, BucketCapacity: 2, Tolerance: 1})
	if n := saveAndLoad(t, 2, flat, lsh); n != 1 {
		t.Fatalf("restored %d entries into an LSH cache, want 1", n)
	}
	if docs, ok := lsh.Get(vec.Vector{1, 1}); !ok || docs[0] != 1 {
		t.Errorf("LSH Get after a FLAT restore = %v %v", docs, ok)
	}
}

func TestSnapshotEmptyCache(t *testing.T) {
	orig := mustFlat(t, 3, Options{Capacity: 2, Tolerance: 1})
	restored := mustFlat(t, 3, Options{Capacity: 2, Tolerance: 1})
	if n := saveAndLoad(t, 3, orig, restored); n != 0 || restored.Len() != 0 {
		t.Errorf("empty snapshot restored %d entries, Len %d", n, restored.Len())
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
	if err := WriteEntrySnapshot(&headered, 2, orig); err != nil {
		t.Fatal(err)
	}
	// Strip the header to reconstruct what a v0 writer produced.
	legacy := bytes.NewReader(headered.Bytes()[len(snapshotMagic)+1:])
	dim, entries, err := ReadEntrySnapshot(legacy)
	if err != nil {
		t.Fatalf("legacy read: %v", err)
	}
	if dim != 2 || len(entries) != 1 || entries[0].Docs[0] != 7 {
		t.Fatalf("legacy read = dim %d, %+v", dim, entries)
	}
}

// Files written by the per-variant FLAT (headerless v0) and LSH writers
// of older builds restore their entries, in the order written, through
// the one restore path; their construction options are ignored.
func TestOldSnapshotsStayReadable(t *testing.T) {
	for _, tt := range []struct {
		name string
		want []Entry
	}{
		{"v0-flat", []Entry{{vec.Vector{1, 2, 3}, []int{1, 2}, 1}, {vec.Vector{4, 5, 6}, []int{3}, 0.5}}},
		{"v1-lsh", []Entry{{vec.Vector{1, 0, 0, 0}, []int{1}, 1}, {vec.Vector{0, 1, 0, 0}, []int{2}, 1}, {vec.Vector{-1, 0, 0, 0}, []int{3}, 1}}},
		{"v1-entry", []Entry{{vec.Vector{1, 2, 3}, []int{1, 2}, 1}, {vec.Vector{4, 5, 6}, []int{3}, 0.5}}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tt.name)
			if err := os.WriteFile(path, corpusInput(t, tt.name), 0o644); err != nil {
				t.Fatal(err)
			}
			dim := len(tt.want[0].Key)
			c := mustFlat(t, dim, Options{Capacity: 8, Tolerance: 1})
			n, err := LoadSnapshot(path, dim, c)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Entries(); n != len(tt.want) || !sameEntries(got, tt.want) {
				t.Fatalf("restored %d entries %+v, want %+v", n, got, tt.want)
			}
		})
	}
}

// Snapshots from a newer format generation are rejected with the typed
// error, not fed to gob.
func TestSnapshotFutureFormatVersion(t *testing.T) {
	future := append(append([]byte(nil), snapshotMagic...), 0xFF, 1, 2, 3)
	if _, _, err := ReadEntrySnapshot(bytes.NewReader(future)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
	path := filepath.Join(t.TempDir(), "future.snap")
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path, 2, mustFlat(t, 2, Options{Capacity: 2, Tolerance: 1})); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("LoadSnapshot err = %v, want ErrSnapshotVersion", err)
	}
}

// A snapshot records the metric its cache compared keys by. Caches compare
// by L2 only, so 0 (not recorded) and 1 (L2) load, and a cosine (2) or
// inner-product (3) snapshot is refused as an incompatible version. The
// writer keeps recording 1, which older builds read as L2.
func TestSnapshotMetric(t *testing.T) {
	for _, tt := range []struct {
		metric int
		ok     bool
	}{{0, true}, {1, true}, {2, false}, {3, false}} {
		t.Run(fmt.Sprint(tt.metric), func(t *testing.T) {
			data := encodeEntrySnapshot(t, entrySnapshot{
				Version: snapshotVersion, Dim: 2, Metric: tt.metric,
				Keys: []vec.Vector{{1, 2}}, Docs: [][]int{{7}}, Tols: []float32{1},
			})
			_, entries, err := ReadEntrySnapshot(bytes.NewReader(data))
			if tt.ok && (err != nil || len(entries) != 1) || !tt.ok && !errors.Is(err, ErrSnapshotVersion) {
				t.Errorf("snapshot with metric %d: %d entries, err = %v", tt.metric, len(entries), err)
			}
		})
	}
	var buf bytes.Buffer
	if err := WriteEntrySnapshot(&buf, 2, mustFlat(t, 2, Options{Capacity: 2})); err != nil {
		t.Fatal(err)
	}
	var snap entrySnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes()[len(snapshotMagic)+1:])).Decode(&snap); err != nil || snap.Metric != 1 {
		t.Fatalf("written metric = %d, %v; want 1 (L2)", snap.Metric, err)
	}
	// The committed cosine FLAT snapshot of an older build is refused too.
	if _, _, err := ReadEntrySnapshot(bytes.NewReader(corpusInput(t, "cosine-flat"))); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("cosine-flat: err = %v, want ErrSnapshotVersion", err)
	}
}

// A Dim above maxSnapshotDim is corruption, refused before anything is
// sized by it: the committed LSH snapshot of an older build is a few
// hundred bytes declaring Dim 2²⁶, which once drew a 256 MB hyperplane.
func TestSnapshotHugeDimIsCorrupt(t *testing.T) {
	for name, data := range map[string][]byte{
		"huge-dim-lsh": corpusInput(t, "huge-dim-lsh"),
		"entry":        encodeEntrySnapshot(t, entrySnapshot{Version: snapshotVersion, Dim: 1 << 26, Metric: 1}),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadEntrySnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a snapshot declaring dim 2²⁶ loaded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("%s: refusing a %d-byte snapshot allocated %d bytes", name, len(data), n)
		}
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot reader. It may
// not panic, and a snapshot it accepts must be consistent: every key Dim
// floats long.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dim, entries, err := ReadEntrySnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, e := range entries {
			if len(e.Key) != dim {
				t.Fatalf("entry %d has %d floats in a dim-%d snapshot", i, len(e.Key), dim)
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
			var buf bytes.Buffer
			if err := WriteEntrySnapshot(&buf, dim, orig); err != nil {
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
			sameEntries(t, orig.Entries(), fresh.Entries(), tc.ordered)
			if orig.Len() != fresh.Len() {
				t.Fatalf("Len %d vs %d", orig.Len(), fresh.Len())
			}
		})
	}
}
