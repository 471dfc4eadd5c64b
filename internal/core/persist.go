package core

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"proximity/internal/vec"
)

// Snapshot persistence: a production middleware restarts without losing
// its warm cache. A cache's whole state is its list of (key, documents,
// τ) lines, so there is one snapshot format for every variant — the
// entries in eviction order, as Entries() enumerates them — and one
// restore path: replaying them through PutWithTolerance into whatever
// cache the new process built. SaveSnapshot and LoadSnapshot are that
// pair at file level. A restore of N entries is N PutWithTolerance
// calls and is counted as such.
//
// The format is a magic/version header followed by an encoding/gob
// payload; it is an internal format, not a cross-version interchange
// contract. The reader also accepts headerless v0 snapshots (written
// before the header existed): the magic bytes cannot begin a valid gob
// stream, so the two formats are unambiguous. Gob matches fields by
// name, so the per-variant FLAT and LSH payloads older builds wrote
// decode as entry snapshots too; their construction options are ignored.

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

// maxSnapshotDim bounds a snapshot's Dim: a header declaring more is
// corruption, refused before any key is checked against it.
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

// entrySnapshot is the one serialized form of a cache's contents: the
// entries in eviction order, without the construction options. Any
// EntrySource can write one, and any cache can be refilled from one by
// replaying PutWithTolerance. Metric records the distance the writer
// compared keys by (1, L2); older FLAT and LSH payloads carry the field
// too, and 0 means not recorded.
type entrySnapshot struct {
	Version int
	Dim     int
	Metric  int
	Keys    []vec.Vector
	Docs    [][]int
	Tols    []float32
}

// WriteEntrySnapshot serializes src's entries (in src's enumeration
// order, which is eviction order where the source defines one) to w.
func WriteEntrySnapshot(w io.Writer, dim int, src EntrySource) error {
	snap := entrySnapshot{Version: snapshotVersion, Dim: dim, Metric: int(vec.L2Distance)}
	for _, e := range src.Entries() {
		snap.Keys = append(snap.Keys, e.Key)
		snap.Docs = append(snap.Docs, e.Docs)
		snap.Tols = append(snap.Tols, e.Tol)
	}
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
// contents and eviction sequence in any cache variant. A snapshot from a
// newer format generation, or of a cache that compared keys by another
// metric than L2, returns an error wrapping ErrSnapshotVersion.
func ReadEntrySnapshot(r io.Reader) (dim int, entries []Entry, err error) {
	br := bufio.NewReader(r)
	if err := consumeSnapshotHeader(br); err != nil {
		return 0, nil, err
	}
	var snap entrySnapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return 0, nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return 0, nil, fmt.Errorf("%w: payload version %d", ErrSnapshotVersion, snap.Version)
	}
	// Caches compare by L2 only: a metric other than 1 (L2) or 0 (not
	// recorded) calls for a cold start, not a reinterpretation.
	if snap.Metric != 0 && snap.Metric != int(vec.L2Distance) {
		return 0, nil, fmt.Errorf("%w: distance metric %d (caches compare by L2 only)", ErrSnapshotVersion, snap.Metric)
	}
	if snap.Dim > maxSnapshotDim {
		return 0, nil, fmt.Errorf("core: corrupt snapshot: dim %d exceeds %d", snap.Dim, maxSnapshotDim)
	}
	if len(snap.Keys) != len(snap.Docs) || len(snap.Keys) != len(snap.Tols) {
		return 0, nil, fmt.Errorf("core: corrupt snapshot: %d keys, %d docs, %d tolerances",
			len(snap.Keys), len(snap.Docs), len(snap.Tols))
	}
	entries = make([]Entry, len(snap.Keys))
	for i, k := range snap.Keys {
		if len(k) != snap.Dim {
			return 0, nil, fmt.Errorf("core: corrupt snapshot: key %d has dim %d, expected %d", i, len(k), snap.Dim)
		}
		entries[i] = Entry{Key: k, Docs: snap.Docs[i], Tol: snap.Tols[i]}
	}
	return snap.Dim, entries, nil
}

// SaveSnapshot writes src's entries to path as one entry snapshot,
// crash-safely through WriteFileAtomic: a crash mid-write leaves the
// previous snapshot intact. A sharded cache is one EntrySource, so it
// saves as one file too.
func SaveSnapshot(path string, dim int, src EntrySource) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		return WriteEntrySnapshot(w, dim, src)
	})
}

// LoadSnapshot replays the entry snapshot at path into c, in the order it
// was written, and returns how many entries it replayed. A missing file
// is a first boot: 0 entries and no error. The snapshot's dimension must
// equal dim. The replay is N PutWithTolerance calls and is counted as
// such — N Puts, plus whatever evictions the live cache's capacity
// causes — and each entry lands where c routes it now, so the variant,
// shard count or tiering may differ from the writer's. Any other
// failure, a directory at path included, is an error naming path.
func LoadSnapshot(path string, dim int, c Cache) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	snapDim, entries, err := ReadEntrySnapshot(f)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if snapDim != dim {
		return 0, fmt.Errorf("%s: snapshot dimension %d does not match cache dimension %d", path, snapDim, dim)
	}
	for _, e := range entries {
		c.PutWithTolerance(e.Key, e.Docs, e.Tol)
	}
	return len(entries), nil
}
