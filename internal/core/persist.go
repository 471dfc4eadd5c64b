package core

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"proximity/internal/vec"
)

// Snapshot persistence: a production middleware restarts without losing
// its warm cache. Snapshots preserve entries, per-line tolerances, and
// eviction order; cumulative counters restart at zero (they describe a
// process lifetime, not the cached state).
//
// The format is a magic/version header followed by an encoding/gob
// payload; it is an internal format, not a cross-version interchange
// contract. Readers also accept headerless v0 snapshots (written before
// the header existed): the magic bytes cannot begin a valid gob stream,
// so the two formats are unambiguous.

const snapshotVersion = 1

// snapshotMagic prefixes every snapshot written since the header was
// introduced. A gob stream starts with a type-definition length whose
// first byte is small, so these bytes can never be confused with a
// legacy headerless snapshot.
var snapshotMagic = []byte("PXSNAP")

// snapshotFormatVersion is the on-disk format generation, written as a
// single byte after the magic. Bump it on incompatible layout changes;
// readers reject newer generations with ErrSnapshotVersion instead of
// feeding them to gob and decoding garbage.
const snapshotFormatVersion = 1

// ErrSnapshotVersion reports a snapshot written by an incompatible
// format generation (or a gob payload carrying an unknown version tag).
// Callers distinguish it from plain corruption: a version mismatch is
// expected across upgrades and warrants a cold start, not an alert.
var ErrSnapshotVersion = errors.New("core: unsupported snapshot version")

// maxSnapshotDim bounds a snapshot's Dim, which sizes allocations before
// any key is checked (an LSH cache draws Bits·Dim hyperplane floats).
const maxSnapshotDim = 1 << 16

// writeSnapshotHeader emits the magic/version prefix.
func writeSnapshotHeader(w io.Writer) error {
	if _, err := w.Write(snapshotMagic); err != nil {
		return fmt.Errorf("core: write snapshot header: %w", err)
	}
	if _, err := w.Write([]byte{snapshotFormatVersion}); err != nil {
		return fmt.Errorf("core: write snapshot header: %w", err)
	}
	return nil
}

// consumeSnapshotHeader checks for the magic/version prefix on br,
// consuming it when present. Headerless (v0) snapshots pass through
// untouched for the gob decoder. A recognized magic with a newer format
// byte is ErrSnapshotVersion.
func consumeSnapshotHeader(br *bufio.Reader) error {
	head, err := br.Peek(len(snapshotMagic) + 1)
	if err != nil {
		// Too short to carry a header; let the gob decoder report the
		// truncation with its own context.
		return nil
	}
	if !bytes.Equal(head[:len(snapshotMagic)], snapshotMagic) {
		return nil // legacy v0: headerless gob
	}
	if v := head[len(snapshotMagic)]; v > snapshotFormatVersion {
		return fmt.Errorf("%w: format generation %d (this build reads up to %d)",
			ErrSnapshotVersion, v, snapshotFormatVersion)
	}
	if _, err := br.Discard(len(snapshotMagic) + 1); err != nil {
		return fmt.Errorf("core: consume snapshot header: %w", err)
	}
	return nil
}

// WriteFileAtomic writes a file via a temp-file-and-rename so a crash
// mid-write can never leave a torn file at path: the rename is atomic on
// POSIX filesystems, so readers observe either the old content or the
// complete new one. The temp file lives in path's directory (renames
// across filesystems are not atomic) and is cleaned up on failure.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: create temp snapshot: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: flush snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("core: sync snapshot: %w", err)
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return fmt.Errorf("core: close snapshot: %w", err)
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("core: rename snapshot into place: %w", err)
	}
	return nil
}

// flatSnapshot is the serialized form of a FlatCache.
type flatSnapshot struct {
	Version   int
	Dim       int
	Capacity  int
	Tolerance float32
	Metric    int
	Policy    int
	// Entries in eviction order, front (next to evict) first.
	Keys []vec.Vector
	Docs [][]int
	Tols []float32
}

// WriteSnapshot serializes the cache contents to w.
func (c *FlatCache) WriteSnapshot(w io.Writer) error {
	snap := flatSnapshot{
		Version:   snapshotVersion,
		Dim:       c.dim,
		Capacity:  c.opts.Capacity,
		Tolerance: c.opts.Tolerance,
		Metric:    int(vec.L2Distance),
		Policy:    int(c.opts.Policy),
	}
	snap.Keys, snap.Docs, snap.Tols = entryColumns(c.Entries())
	return encodeSnapshot(w, snap)
}

// ReadFlatSnapshot reconstructs a FlatCache from a snapshot. Both the
// current headered format and legacy headerless (v0) snapshots are
// accepted; a snapshot from a newer format generation, or of a cache that
// compared keys by another metric than L2, returns an error wrapping
// ErrSnapshotVersion.
func ReadFlatSnapshot(r io.Reader) (*FlatCache, error) {
	var snap flatSnapshot
	if err := decodeSnapshot(r, &snap); err != nil {
		return nil, err
	}
	entries, err := snapshotEntries(snap.Version, snap.Metric, snap.Dim, snap.Keys, snap.Docs, snap.Tols)
	if err != nil {
		return nil, err
	}
	c, err := NewFlat(snap.Dim, Options{
		Capacity:  snap.Capacity,
		Tolerance: snap.Tolerance,
		Policy:    Policy(snap.Policy),
	})
	if err != nil {
		return nil, fmt.Errorf("core: rebuild cache: %w", err)
	}
	for _, e := range entries {
		c.PutWithTolerance(e.Key, e.Docs, e.Tol)
	}
	// Reloading counted one Put per entry; restart the counters so the
	// new process observes a clean lifetime. Nothing else holds c yet.
	c.stats = Stats{}
	return c, nil
}

// lshSnapshot is the serialized form of an LSHCache. Bucket assignment is
// not stored: keys re-hash into the same buckets because the hyperplane
// seed is preserved.
type lshSnapshot struct {
	Version        int
	Dim            int
	Bits           int
	BucketCapacity int
	Tolerance      float32
	Metric         int
	Policy         int
	Seed           uint64
	Probes         int
	Keys           []vec.Vector
	Docs           [][]int
	Tols           []float32
}

// WriteSnapshot serializes the cache contents to w. Within each bucket,
// eviction order is preserved; ordering across buckets is immaterial.
func (c *LSHCache) WriteSnapshot(w io.Writer) error {
	snap := lshSnapshot{
		Version:        snapshotVersion,
		Dim:            c.hasher.Dim(),
		Bits:           c.hasher.Bits(),
		BucketCapacity: c.bucket.Capacity,
		Tolerance:      c.bucket.Tolerance,
		Metric:         int(vec.L2Distance),
		Policy:         int(c.bucket.Policy),
		Seed:           c.seed,
		Probes:         c.probes,
	}
	snap.Keys, snap.Docs, snap.Tols = entryColumns(c.Entries())
	return encodeSnapshot(w, snap)
}

// ReadLSHSnapshot reconstructs an LSHCache from a snapshot. Both the
// current headered format and legacy headerless (v0) snapshots are
// accepted; a snapshot from a newer format generation, or of a cache that
// compared keys by another metric than L2, returns an error wrapping
// ErrSnapshotVersion.
func ReadLSHSnapshot(r io.Reader) (*LSHCache, error) {
	var snap lshSnapshot
	if err := decodeSnapshot(r, &snap); err != nil {
		return nil, err
	}
	entries, err := snapshotEntries(snap.Version, snap.Metric, snap.Dim, snap.Keys, snap.Docs, snap.Tols)
	if err != nil {
		return nil, err
	}
	c, err := NewLSH(snap.Dim, LSHOptions{
		Bits:           snap.Bits,
		BucketCapacity: snap.BucketCapacity,
		Tolerance:      snap.Tolerance,
		Policy:         Policy(snap.Policy),
		Seed:           snap.Seed,
		Probes:         snap.Probes,
	})
	if err != nil {
		return nil, fmt.Errorf("core: rebuild cache: %w", err)
	}
	for _, e := range entries {
		c.PutWithTolerance(e.Key, e.Docs, e.Tol)
	}
	// As in ReadFlatSnapshot: fresh counters, and nothing else holds c.
	c.hashOps, c.missesOnEmpty = 0, 0
	for _, b := range c.buckets {
		b.stats = Stats{}
	}
	return c, nil
}

// entrySnapshot is the variant-agnostic serialized form of a cache's
// contents: just the entries in eviction order, without the construction
// options. Any EntrySource can write one, and any cache can be refilled
// from one by replaying PutWithTolerance — the cold-tier format of the
// tiered hierarchy, and the interchange format for moving contents
// between cache variants.
type entrySnapshot struct {
	Version int
	Dim     int
	Keys    []vec.Vector
	Docs    [][]int
	Tols    []float32
}

// WriteEntrySnapshot serializes src's entries (in src's enumeration
// order, which is eviction order where the source defines one) to w.
func WriteEntrySnapshot(w io.Writer, dim int, src EntrySource) error {
	snap := entrySnapshot{Version: snapshotVersion, Dim: dim}
	snap.Keys, snap.Docs, snap.Tols = entryColumns(src.Entries())
	return encodeSnapshot(w, snap)
}

// entryColumns splits entries into a snapshot's parallel columns.
func entryColumns(entries []Entry) (keys []vec.Vector, docs [][]int, tols []float32) {
	for _, e := range entries {
		keys = append(keys, e.Key)
		docs = append(docs, e.Docs)
		tols = append(tols, e.Tol)
	}
	return keys, docs, tols
}

// encodeSnapshot writes the header and then snap as gob.
func encodeSnapshot(w io.Writer, snap any) error {
	if err := writeSnapshotHeader(w); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	return nil
}

// ReadEntrySnapshot decodes an entry snapshot, returning the embedding
// dimension and the entries in their serialized order. Replaying them in
// that order through PutWithTolerance reproduces the snapshotted
// contents and eviction sequence in any cache variant.
func ReadEntrySnapshot(r io.Reader) (dim int, entries []Entry, err error) {
	var snap entrySnapshot
	if err := decodeSnapshot(r, &snap); err != nil {
		return 0, nil, err
	}
	if entries, err = snapshotEntries(snap.Version, 0 /* not recorded */, snap.Dim, snap.Keys, snap.Docs, snap.Tols); err != nil {
		return 0, nil, err
	}
	return snap.Dim, entries, nil
}

// decodeSnapshot reads the optional header and then the gob payload into
// snap.
func decodeSnapshot(r io.Reader, snap any) error {
	br := bufio.NewReader(r)
	if err := consumeSnapshotHeader(br); err != nil {
		return err
	}
	if err := gob.NewDecoder(br).Decode(snap); err != nil {
		return fmt.Errorf("core: decode snapshot: %w", err)
	}
	return nil
}

// snapshotEntries checks a decoded payload's version, metric, dimension
// and columns and zips the columns back into entries, in their serialized
// order. Caches compare by L2 only: a metric other than 1 (L2) or 0 (not
// recorded) calls for a cold start, not a reinterpretation.
func snapshotEntries(version, metric, dim int, keys []vec.Vector, docs [][]int, tols []float32) ([]Entry, error) {
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: payload version %d", ErrSnapshotVersion, version)
	}
	if metric != 0 && metric != int(vec.L2Distance) {
		return nil, fmt.Errorf("%w: distance metric %d (caches compare by L2 only)", ErrSnapshotVersion, metric)
	}
	if dim > maxSnapshotDim {
		return nil, fmt.Errorf("core: corrupt snapshot: dim %d exceeds %d", dim, maxSnapshotDim)
	}
	if len(keys) != len(docs) || len(keys) != len(tols) {
		return nil, fmt.Errorf("core: corrupt snapshot: %d keys, %d docs, %d tolerances",
			len(keys), len(docs), len(tols))
	}
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		if len(k) != dim {
			return nil, fmt.Errorf("core: corrupt snapshot: key %d has dim %d, expected %d", i, len(k), dim)
		}
		entries[i] = Entry{Key: k, Docs: docs[i], Tol: tols[i]}
	}
	return entries, nil
}
