package adaptivelink

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"adaptivelink/internal/join"
	"adaptivelink/internal/store"
	"adaptivelink/internal/vfs"
)

// IndexDigest is a cheap content fingerprint for replica comparison:
// CRC-32C digests over the index's canonical snapshot encoding — the
// same export a checkpoint writes, computed straight from the resident
// representation without re-hashing a single gram — plus the WAL
// position (WALRecords, 0 for in-memory indexes). Two replicas that
// applied the same upsert stream report the same Combined digest, so
// anti-entropy can detect divergence by exchanging a few dozen bytes
// instead of snapshots.
type IndexDigest = store.ContentDigest

// snapshotExporter gates the snapshot surface (Digest, export, Save,
// RestoreSnapshot) to residents that hold their state in process: the
// local sharded engine. A remote resident's state lives on its nodes,
// and the refusal wraps errors.ErrUnsupported.
func (ix *Index) snapshotExporter() (*join.ShardedRefIndex, error) {
	sr, ok := ix.resident().(*join.ShardedRefIndex)
	if !ok {
		return nil, fmt.Errorf("adaptivelink: index backend %T does not snapshot: %w", ix.resident(), errors.ErrUnsupported)
	}
	return sr, nil
}

// Digest fingerprints the index's current content. On a durable index
// the WAL position is read and the view taken under the write lock, so
// the pair is a consistent point: a replica reporting the same Combined
// digest and record count holds byte-identical state. The view is plain
// data, so it is fingerprinted after the lock is gone.
func (ix *Index) Digest() (IndexDigest, error) {
	sr, err := ix.snapshotExporter()
	if err != nil {
		return IndexDigest{}, err
	}
	var walRecords int64
	if ix.dir != nil {
		ix.mu.Lock()
		walRecords = ix.dir.WALRecords()
	}
	v, err := sr.ExportSnapshot()
	if ix.dir != nil {
		ix.mu.Unlock()
	}
	if err != nil {
		return IndexDigest{}, err
	}
	d := store.DigestView(v)
	d.WALRecords = walRecords
	return d, nil
}

// ExportSnapshotTo streams the index's state in the snapshot format —
// the same bytes a checkpoint writes — without touching the index's own
// storage. This is the sending half of a replica resync; the receiver
// applies it with RestoreSnapshot.
func (ix *Index) ExportSnapshotTo(w io.Writer) error {
	sr, err := ix.snapshotExporter()
	if err != nil {
		return err
	}
	v, err := sr.ExportSnapshot()
	if err != nil {
		return err
	}
	return store.WriteSnapshot(w, v)
}

// ExportSnapshotBytes is ExportSnapshotTo into memory.
func (ix *Index) ExportSnapshotBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := ix.ExportSnapshotTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreSnapshot replaces the index's entire content with the given
// snapshot (as produced by ExportSnapshotTo on a healthy replica) —
// the receiving half of a replica resync. The snapshot must carry the
// index's own matching configuration: Q, θsim, measure and
// normalization profile always have to match, and a durable index's
// shard count too (its stored artifacts are bound to it); an in-memory
// index adopts the incoming shard layout, since resharding a resident
// engine is free at replacement time.
//
// The swap is atomic with respect to probes: in-flight probes finish
// against the old content, later probes see the new one, and on a
// durable index the restored state is checkpointed before the swap —
// so an acknowledged restore survives a crash and the WAL never mixes
// pre- and post-restore batches. A failed restore leaves the index
// unchanged, and so does a refused one: a remote index does not
// restore, since replacing its resident would silently turn it local.
func (ix *Index) RestoreSnapshot(data []byte) error {
	if _, err := ix.snapshotExporter(); err != nil {
		return err
	}
	ri, err := store.DecodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("adaptivelink: restoring snapshot: %w", err)
	}
	incoming := store.MetaOf(ri)
	want := ix.opts.meta()
	if ix.dir == nil {
		// In-memory replicas adopt the snapshot's shard layout.
		want.Shards = incoming.Shards
	}
	if err := want.Check(incoming); err != nil {
		return fmt.Errorf("adaptivelink: restoring snapshot: %w", err)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return ErrIndexClosed
	}
	if ix.dir != nil {
		// Persist first: if the checkpoint fails the resident engine is
		// untouched and memory still equals disk.
		if err := ix.dir.Checkpoint(ri); err != nil {
			return fmt.Errorf("adaptivelink: persisting restored snapshot: %w", err)
		}
	}
	ix.setResident(ri)
	return nil
}

// ImportSnapshot builds a fresh index from exported snapshot bytes —
// how a blank replacement replica bootstraps before catching up through
// normal upserts. Options left zero adopt the snapshot's stored
// configuration; options set explicitly must match it. With
// Storage.Dir set the imported index is persisted exactly as BulkLoad
// persists its build: its snapshot is written into a directory that
// must not already hold an index, and the returned index is durable,
// logging subsequent Upserts.
func ImportSnapshot(data []byte, opts IndexOptions) (*Index, error) {
	ri, err := store.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("adaptivelink: importing snapshot: %w", err)
	}
	m := store.MetaOf(ri)
	opts, err = opts.adopting(m).resolved()
	if err != nil {
		return nil, err
	}
	if err := opts.meta().Check(m); err != nil {
		return nil, fmt.Errorf("adaptivelink: importing snapshot: %w", err)
	}
	ix := newIndex(ri, opts)
	if opts.Storage.Dir != "" {
		if ix.dir, err = store.Create(vfs.OS, opts.Storage.Dir, ri, opts.Storage.WALSync.store()); err != nil {
			return nil, fmt.Errorf("adaptivelink: persisting imported snapshot: %w", err)
		}
	}
	return ix, nil
}
