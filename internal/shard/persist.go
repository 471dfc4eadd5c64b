package shard

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"proximity/internal/core"
)

// Per-shard cold snapshots: a sharded (typically tiered) cache persists
// as one variant-agnostic entry snapshot per shard. Files are written
// crash-safely (temp + rename), and loading replays every snapshot found
// through the CURRENT routing — the shard count or partitioner seed may
// have changed across the restart, and replay re-homes each entry where
// the live draw wants it.

// snapshotName returns the file name for one shard's snapshot.
func snapshotName(i int) string { return fmt.Sprintf("shard-%03d.snap", i) }

// WriteSnapshots writes one entry snapshot per shard into dir, creating
// it if needed. Every sub-cache must enumerate its entries
// (ErrNotMigratable otherwise). Each file is written atomically, so a
// crash mid-save leaves the previous snapshot set readable (a torn SET —
// some shards new, some old — is possible but benign: every file is
// individually consistent and replay tolerates any mixture).
func (c *ShardedCache) WriteSnapshots(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: create snapshot dir: %w", err)
	}
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.RLock()
		src, ok := s.cache.(core.EntrySource)
		if !ok {
			s.mu.RUnlock()
			return fmt.Errorf("shard %d: %w", i, ErrNotMigratable)
		}
		err := core.WriteFileAtomic(filepath.Join(dir, snapshotName(i)), func(w io.Writer) error {
			return core.WriteEntrySnapshot(w, c.dim, src)
		})
		s.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// LoadSnapshots replays every shard snapshot found in dir into the
// cache. Entries route by the current partitioner, so snapshots written
// under a different shard count or seed still load correctly. The
// replay's inserts are subtracted from the Puts counters, so a restarted
// process reports client traffic only. A missing directory or an empty
// one loads nothing and returns nil.
func (c *ShardedCache) LoadSnapshots(dir string) error {
	c.migrateMu.Lock()
	defer c.migrateMu.Unlock()
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if err != nil {
		return err
	}
	sort.Strings(matches)
	before := make([]int64, len(c.slots))
	for i := range c.slots {
		before[i] = c.slots[i].stats().Puts
	}
	for _, path := range matches {
		if err := c.loadOne(path); err != nil {
			return err
		}
	}
	for i := range c.slots {
		s := &c.slots[i]
		s.mu.Lock()
		replayed := s.statsLocked().Puts - before[i]
		s.base.Puts -= replayed
		s.mu.Unlock()
	}
	return nil
}

func (c *ShardedCache) loadOne(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dim, entries, err := core.ReadEntrySnapshot(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if dim != c.dim {
		return fmt.Errorf("%s: snapshot dimension %d does not match cache dimension %d", path, dim, c.dim)
	}
	for _, e := range entries {
		c.PutWithTolerance(e.Key, e.Docs, e.Tol)
	}
	return nil
}
