package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/vfs"
)

// Directory layout: one snapshot plus one WAL per index. The snapshot
// is the last checkpoint; the WAL holds every acknowledged upsert since
// that checkpoint. Recovery is load + replay; a checkpoint rewrites the
// snapshot atomically and resets the WAL.
const (
	// SnapshotFile is the snapshot's name inside an index directory.
	SnapshotFile = "index.snap"
	// WALFile is the upsert log's name inside an index directory.
	WALFile = "upserts.wal"
)

// Dir is an open index directory: the durable half of a resident index.
// The caller owns sequencing — append to the WAL before applying and
// acknowledging an upsert, checkpoint at will — while Dir owns the
// files.
type Dir struct {
	path string
	meta Meta
	fs   vfs.FS
	wal  *WAL

	lastSnapshot time.Time

	// Checkpoint telemetry; Checkpoint is caller-serialised like the
	// WAL, so plain fields suffice.
	checkpoints     int64
	checkpointNanos int64
}

// StorageStats is the directory's cumulative durability telemetry:
// the WAL's append/fsync latency plus checkpoint counts and durations.
type StorageStats struct {
	WAL WALStats
	// Checkpoints counts Checkpoint calls since open; CheckpointNanos
	// their total wall time (export + write + WAL reset).
	Checkpoints     int64
	CheckpointNanos int64
}

// Stats returns the directory's telemetry counters. Like the WAL, call
// from the writing goroutine or a quiescent point.
func (d *Dir) Stats() StorageStats {
	return StorageStats{WAL: d.wal.Stats(), Checkpoints: d.checkpoints, CheckpointNanos: d.checkpointNanos}
}

// Recovery reports what Open reconstructed, for logs and stats.
type Recovery struct {
	// SnapshotTuples is the size of the loaded checkpoint (0 if the
	// directory had none).
	SnapshotTuples int
	// WALRecords is the number of upsert batches replayed on top.
	WALRecords int64
	// TornTail reports that the WAL ended in a partial, unacknowledged
	// frame that was discarded.
	TornTail bool
}

// PeekMeta reads the stored compatibility tuple from an index directory
// without loading it: from the snapshot header if one exists, else from
// the WAL header, else nil (an empty or absent directory carries no
// configuration). Callers use it to resolve "open with whatever is
// stored" before committing to a full Open.
func PeekMeta(dir string) (*Meta, error) {
	if m, err := peekSnapshotMeta(filepath.Join(dir, SnapshotFile)); err != nil || m != nil {
		return m, err
	}
	return peekWALMeta(filepath.Join(dir, WALFile))
}

func peekSnapshotMeta(path string) (*Meta, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The compatibility fields all sit in the header (full structural
	// validation happens on load): decode the file's prefix with the
	// loader's own header decoder.
	buf := make([]byte, snapHeaderMax)
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	_, m, _, err := readHeader(&reader{data: buf[:n]})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func peekWALMeta(path string) (*Meta, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The full v2 header: fixed fields, profile length, profile bytes.
	var buf [walFixedHeaderSize + 4 + maxProfileLen]byte
	n, _ := io.ReadFull(f, buf[:])
	if n == 0 {
		return nil, nil // empty file: treated as absent, Open rewrites it
	}
	dec, err := decodeWALBytes(buf[:n])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := dec.meta
	return &m, nil
}

// Open opens (creating if needed) the index directory and reconstructs
// its resident index: load the snapshot if present, then replay the
// WAL's intact frames through the index's normal upsert path. The
// returned index reflects every acknowledged upsert; the returned Dir
// is positioned to log new ones. Stored artifacts bound to a different
// configuration are rejected with a descriptive error, as is any
// corrupt artifact — Open never yields a partial index. fsys is the
// filesystem the Dir writes through (vfs.OS, or the fault shim for
// crash-consistency schedules).
func Open(fsys vfs.FS, dir string, meta Meta, sync SyncPolicy) (*Dir, *join.ShardedRefIndex, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	// A crash mid-checkpoint can strand the snapshot's temporary file
	// (written beside the target, renamed into place only when complete).
	// Orphans are garbage by construction — the rename never happened, so
	// the previous snapshot is still the live one — and are swept here so
	// a crash-looping process cannot fill the disk with them.
	if orphans, err := filepath.Glob(filepath.Join(dir, SnapshotFile+".tmp*")); err == nil {
		for _, o := range orphans {
			_ = fsys.Remove(o)
		}
	}
	rec := &Recovery{}
	var ix *join.ShardedRefIndex
	snapPath := filepath.Join(dir, SnapshotFile)
	var lastSnap time.Time
	if fi, err := os.Stat(snapPath); err == nil {
		v, err := ReadSnapshotFile(snapPath)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := meta.Check(MetaOf(v)); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", snapPath, err)
		}
		ix, err = join.NewShardedRefIndexFromSnapshot(v)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", snapPath, err)
		}
		rec.SnapshotTuples = ix.Len()
		lastSnap = fi.ModTime()
	} else if !os.IsNotExist(err) {
		return nil, nil, nil, err
	} else {
		ix, err = join.NewShardedRefIndex(metaConfig(meta), meta.Shards)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	wal, replay, err := OpenWALFS(fsys, filepath.Join(dir, WALFile), meta, sync)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, batch := range replay.Batches {
		ix.Upsert(batch)
	}
	rec.WALRecords = replay.Records
	rec.TornTail = replay.TornTail
	return &Dir{path: dir, meta: meta, fs: fsys, wal: wal, lastSnapshot: lastSnap}, ix, rec, nil
}

// Create makes dir durable for an index built in memory (the import
// and export paths): it writes the index's snapshot directly — no WAL
// round trip for its rows — and opens a fresh WAL for what comes after.
// A directory that already holds an index is refused; Open it instead.
// It is CreateBuild with a build that is already done.
func Create(fsys vfs.FS, dir string, ix *join.ShardedRefIndex, sync SyncPolicy) (*Dir, error) {
	_, d, err := CreateBuild(fsys, dir, sync, func(persist func(*join.SnapshotView) error) (*join.ShardedRefIndex, error) {
		v, err := ix.ExportSnapshot()
		if err != nil {
			return nil, err
		}
		return ix, persist(v)
	})
	return d, err
}

// A Build builds a resident index, handing persist the view of what it
// built (join.Bulk.Build is one): see CreateBuild.
type Build func(persist func(*join.SnapshotView) error) (*join.ShardedRefIndex, error)

// CreateBuild makes dir durable for the index build builds — the bulk
// load path. The snapshot of the view build hands persist is encoded
// and fsynced into a temporary file while the build goes on (a second
// call replaces the first one's file), and committed — renamed into
// place, the directory fsynced, a fresh WAL opened — only once build
// has succeeded. A directory that already holds an index is refused
// before build runs. A failed create leaves nothing behind: the
// temporary file, the snapshot, the WAL and, if the call made it, the
// directory are removed again, so the next create of the same
// directory starts as this one did. fsys is the filesystem it writes
// through, as for Open.
func CreateBuild(fsys vfs.FS, dir string, sync SyncPolicy, build Build) (ix *join.ShardedRefIndex, d *Dir, err error) {
	if m, err := PeekMeta(dir); err != nil {
		return nil, nil, err
	} else if m != nil {
		return nil, nil, fmt.Errorf("store: %s already holds an index; open it or remove it first", dir)
	}
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// written lists what this call put in dir, for a failure to remove.
	var written []string
	if os.IsNotExist(statErr) {
		written = append(written, dir)
	}
	var (
		tmp  string // the snapshot's temporary file, until renamed
		meta Meta
		wal  *WAL
	)
	defer func() {
		if err == nil {
			return
		}
		if wal != nil {
			wal.Close()
		}
		if tmp != "" {
			fsys.Remove(tmp)
		}
		for i := len(written) - 1; i >= 0; i-- { // files first, dir last
			fsys.Remove(written[i])
		}
	}()
	snapPath, walPath := filepath.Join(dir, SnapshotFile), filepath.Join(dir, WALFile)
	persist := func(v *join.SnapshotView) error {
		if tmp != "" {
			fsys.Remove(tmp)
		}
		meta = MetaOf(v)
		var err error
		tmp, err = writeSnapshotTemp(fsys, snapPath, v)
		return err
	}
	if ix, err = build(persist); err != nil {
		return nil, nil, err
	}
	if tmp == "" {
		return nil, nil, fmt.Errorf("store: the build of %s persisted no snapshot", dir)
	}
	if err = fsys.Rename(tmp, snapPath); err != nil {
		return nil, nil, err
	}
	tmp, written = "", append(written, snapPath)
	if err = fsys.SyncDir(dir); err != nil {
		return nil, nil, err
	}
	written = append(written, walPath)
	if wal, _, err = OpenWALFS(fsys, walPath, meta, sync); err != nil {
		return nil, nil, err
	}
	return ix, &Dir{path: dir, meta: meta, fs: fsys, wal: wal, lastSnapshot: time.Now()}, nil
}

// metaConfig expands a compatibility tuple to the join configuration of
// a fresh resident index.
func metaConfig(m Meta) join.Config {
	return join.Config{Q: m.Q, Measure: m.Measure, Theta: m.Theta, Initial: join.LexRex, Profile: m.Profile}
}

// Append logs one upsert batch. Call before applying the batch to the
// in-memory index: once Append returns under SyncAlways, the batch is
// durable and the upsert may be acknowledged.
func (d *Dir) Append(tuples []relation.Tuple) error {
	return d.wal.Append(tuples)
}

// Checkpoint captures the index into a new snapshot (written atomically
// beside the old one) and resets the WAL, whose frames the snapshot now
// subsumes. Crash-safe at every step: before the rename the old
// snapshot + full WAL still reconstruct the state; after it the new
// snapshot does, with the WAL reset merely redundant until it happens.
func (d *Dir) Checkpoint(ix *join.ShardedRefIndex) error {
	t0 := time.Now()
	v, err := ix.ExportSnapshot()
	if err != nil {
		return err
	}
	if err := d.meta.Check(MetaOf(v)); err != nil {
		return err
	}
	if err := WriteSnapshotFileFS(d.fs, filepath.Join(d.path, SnapshotFile), v); err != nil {
		return err
	}
	d.lastSnapshot = time.Now()
	if err := d.wal.Reset(); err != nil {
		return err
	}
	d.checkpoints++
	d.checkpointNanos += time.Since(t0).Nanoseconds()
	return nil
}

// WALRecords is the number of upsert batches logged since the last
// checkpoint.
func (d *Dir) WALRecords() int64 { return d.wal.Records() }

// Poisoned reports the I/O failure that poisoned the WAL (appends are
// refused until a successful Checkpoint or a reopen), nil when healthy.
func (d *Dir) Poisoned() error { return d.wal.Poisoned() }

// LastSnapshot is when the current snapshot was written (zero if the
// directory has no snapshot yet).
func (d *Dir) LastSnapshot() time.Time { return d.lastSnapshot }

// Path is the directory this Dir manages.
func (d *Dir) Path() string { return d.path }

// Close flushes and releases the WAL. The directory remains openable.
func (d *Dir) Close() error { return d.wal.Close() }
