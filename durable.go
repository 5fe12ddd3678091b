package adaptivelink

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"adaptivelink/internal/join"
	"adaptivelink/internal/store"
	"adaptivelink/internal/stream"
	"adaptivelink/internal/vfs"
)

// SyncPolicy says when a durable index's write-ahead log reaches stable
// storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs the log on every Upsert: an acknowledged upsert
	// survives an immediate crash. The default, and the right choice
	// unless ingest throughput matters more than the last few batches.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the operating system: much faster
	// ingest, and a crash may lose the most recent acknowledged upserts
	// (recovery still stops cleanly at the log's intact prefix — the
	// index reloads consistent, just slightly stale).
	SyncNone
)

func (p SyncPolicy) store() store.SyncPolicy {
	if p == SyncNone {
		return store.SyncNone
	}
	return store.SyncAlways
}

// StorageOptions is the durability section of IndexOptions.
type StorageOptions struct {
	// Dir is the index directory (one index per directory: a binary
	// snapshot plus an upsert log). Empty means in-memory. Constructors
	// taking an explicit directory argument (Open, with Dir also
	// accepted for symmetry) require the two to agree when both are set.
	Dir string
	// WALSync is the log's fsync policy (default SyncAlways).
	WALSync SyncPolicy
}

// ErrIndexClosed is returned by writes against a closed durable index.
var ErrIndexClosed = errors.New("adaptivelink: index is closed")

// Open opens (creating if needed) the durable index stored in dir and
// recovers its state: the snapshot is loaded in its final in-memory
// form — no key is decomposed, no gram hashed; each shard's q-gram
// structures are built by its first approximate probe — and the upsert
// log's acknowledged batches are replayed on top, so the index answers
// exactly as it did before the restart.
//
// Configuration resolution: fields of opts left zero adopt the stored
// configuration (the common case — reopen whatever is there); fields
// set explicitly must match it, and a mismatch (or a snapshot written
// by an incompatible format version) is a descriptive error, never a
// silent reinterpretation. An empty directory is created with opts
// resolved against the package defaults.
func Open(dir string, opts IndexOptions) (*Index, error) {
	if dir == "" {
		return nil, fmt.Errorf("adaptivelink: Open requires a directory")
	}
	if opts.Storage.Dir != "" && opts.Storage.Dir != dir {
		return nil, fmt.Errorf("adaptivelink: Open(%q) conflicts with Storage.Dir %q", dir, opts.Storage.Dir)
	}
	opts.Storage.Dir = dir
	stored, err := store.PeekMeta(dir)
	if err != nil {
		return nil, err
	}
	if stored != nil {
		// Set fields are checked against the stored configuration below,
		// by store.Open's meta gate.
		opts = opts.adopting(*stored)
	}
	opts, err = opts.resolved()
	if err != nil {
		return nil, err
	}
	d, ri, rec, err := store.Open(vfs.OS, dir, opts.meta(), opts.Storage.WALSync.store())
	if err != nil {
		return nil, fmt.Errorf("adaptivelink: opening %s: %w", dir, err)
	}
	ix := newIndex(ri, opts)
	ix.dir, ix.rec = d, rec
	return ix, nil
}

// adopting fills the matching fields left zero from a stored
// compatibility tuple — the common case: reopen or import whatever is
// there. Profile "" adopts like the rest: the stored keys keep the
// normalization they were built with. Fields set explicitly are kept for
// the caller's compatibility check to reject on a mismatch.
func (opts IndexOptions) adopting(m store.Meta) IndexOptions {
	if opts.Q == 0 {
		opts.Q = m.Q
	}
	if opts.Theta == 0 {
		opts.Theta = m.Theta
	}
	if opts.Measure == 0 {
		opts.Measure = Measure(m.Measure)
	}
	if opts.Shards == 0 {
		opts.Shards = m.Shards
	}
	if opts.Profile == "" {
		opts.Profile = m.Profile
	}
	return opts
}

// BulkLoad builds a resident index from the reference source — the one
// construction path, NewIndex included: take the source's rows,
// normalise the keys, hash every key to its home shard, then build each
// shard's tuple store and exact index densely in parallel (the q-gram
// structures wait for the first approximate probe, and the snapshot
// holds none). The outcome is identical to feeding the same rows
// through Upsert (the path WAL replay and live maintenance use). The
// rows of a FromTuples source are adopted, not copied, and each is
// normalised and homed as soon as the source has it; any other source
// is drained first. With Storage.Dir set the built index is persisted
// by writing its snapshot directly (the initial rows never touch the
// log), encoded and fsynced while the shards fill, into a directory
// that must not already hold an index; a failed load leaves nothing
// there. The returned index is then durable, logging subsequent
// Upserts. With an empty Storage.Dir it is NewIndex.
func BulkLoad(ref Source, opts IndexOptions) (*Index, error) {
	if ref == nil {
		return nil, fmt.Errorf("adaptivelink: nil reference source")
	}
	opts, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	rows, ready := stream.Adopt(ref)
	b, err := join.NewBulk(opts.config(), opts.Shards, rows)
	if err != nil {
		return nil, fmt.Errorf("adaptivelink: %w", err)
	}
	// The adopted rows are private to this load: normalise them in place.
	norm, done := opts.normalizer(), 0
	for hi, err := range ready {
		if err != nil {
			return nil, fmt.Errorf("adaptivelink: reading reference: %w", err)
		}
		for ; done < hi; done++ {
			rows[done].Key = norm.Apply(rows[done].Key)
		}
		b.Home(hi)
	}
	if opts.Storage.Dir == "" {
		ri, err := b.Build(nil)
		if err != nil {
			return nil, fmt.Errorf("adaptivelink: %w", err)
		}
		return newIndex(ri, opts), nil
	}
	ri, d, err := store.CreateBuild(vfs.OS, opts.Storage.Dir, opts.Storage.WALSync.store(), b.Build)
	if err != nil {
		return nil, fmt.Errorf("adaptivelink: persisting bulk load: %w", err)
	}
	ix := newIndex(ri, opts)
	ix.dir = d
	return ix, nil
}

// Save writes a snapshot of the index's current state.
//
// With an empty dir it checkpoints a durable index in place: the
// snapshot replaces the previous one atomically and the upsert log,
// now subsumed, is reset — after which a restart is a pure snapshot
// load. With a non-empty dir it exports the state as a fresh index
// directory (usable by Open later), which must not already hold one;
// this is how an in-memory index becomes durable after the fact.
func (ix *Index) Save(dir string) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return ErrIndexClosed
	}
	sr, err := ix.snapshotExporter()
	if err != nil {
		return err
	}
	if dir == "" || (ix.dir != nil && sameDir(dir, ix.dir.Path())) {
		if ix.dir == nil {
			return fmt.Errorf("adaptivelink: Save(\"\") checkpoints a durable index; this index is in-memory — pass a directory")
		}
		return ix.dir.Checkpoint(sr)
	}
	d, err := store.Create(vfs.OS, dir, sr, ix.opts.Storage.WALSync.store())
	if err != nil {
		return err
	}
	// Save exports; it does not re-home the index. The new directory is
	// a finished artifact for a later Open.
	return d.Close()
}

func sameDir(a, b string) bool {
	ca, err1 := filepath.Abs(a)
	cb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && ca == cb
}

// Close releases a durable index's storage (Save("") first makes the
// next Open a pure snapshot load). The in-memory state remains probeable
// (probes are lock-free and touch no files), but writes fail with
// ErrIndexClosed. Closing an in-memory index — or closing twice — is a
// no-op.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed || ix.dir == nil {
		ix.closed = true
		return nil
	}
	ix.closed = true
	return ix.dir.Close()
}

// Durable reports whether the index is backed by storage.
func (ix *Index) Durable() bool { return ix.dir != nil }

// IsIndexDir reports whether dir holds a stored index (a snapshot or an
// upsert log), without loading it. Absent or empty directories are
// simply false; unreadable artifacts are an error.
func IsIndexDir(dir string) (bool, error) {
	m, err := store.PeekMeta(dir)
	return m != nil, err
}

// WALRecords is the number of upsert batches logged since the last
// checkpoint (0 for in-memory indexes).
func (ix *Index) WALRecords() int64 {
	if ix.dir == nil {
		return 0
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.dir.WALRecords()
}

// LastSnapshot is when the index's current snapshot was written (zero
// for in-memory indexes and durable ones that have never checkpointed).
func (ix *Index) LastSnapshot() time.Time {
	if ix.dir == nil {
		return time.Time{}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.dir.LastSnapshot()
}
