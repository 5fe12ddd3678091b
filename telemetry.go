package adaptivelink

// Public telemetry accessors for the observability layer: what Open
// recovered, what durability costs, and how the lock-free engine's
// maintenance side is behaving. The service exports these as Prometheus
// series; embedders can read them directly.

import "adaptivelink/internal/join"

// RecoveryInfo reports what Open reconstructed from an index directory.
type RecoveryInfo struct {
	// Recovered is false for indexes not built by Open (in-memory or
	// bulk-loaded); the remaining fields are then zero.
	Recovered bool
	// SnapshotTuples is the size of the loaded checkpoint (0 if the
	// directory had none).
	SnapshotTuples int
	// WALBatchesReplayed is the number of acknowledged upsert batches
	// replayed on top of the snapshot.
	WALBatchesReplayed int64
	// TornTailTruncated reports that the log ended in a partial,
	// unacknowledged frame (a crash mid-write) that was discarded and
	// truncated away.
	TornTailTruncated bool
}

// RecoveryInfo reports what Open reconstructed when this index was
// opened. Indexes that did not come from Open return the zero value.
func (ix *Index) RecoveryInfo() RecoveryInfo {
	if ix.rec == nil {
		return RecoveryInfo{}
	}
	return RecoveryInfo{
		Recovered:          true,
		SnapshotTuples:     ix.rec.SnapshotTuples,
		WALBatchesReplayed: ix.rec.WALRecords,
		TornTailTruncated:  ix.rec.TornTail,
	}
}

// StorageStats is a durable index's cumulative durability telemetry.
type StorageStats struct {
	// WALAppends counts acknowledged log appends since open;
	// WALAppendSeconds their total wall time and WALFsyncSeconds the
	// fsync share of it (0 under SyncNone). The mean acknowledged-append
	// latency — the durability tax an upsert pays — is
	// WALAppendSeconds/WALAppends.
	WALAppends       int64
	WALAppendSeconds float64
	WALFsyncSeconds  float64
	// Checkpoints counts snapshot checkpoints since open;
	// CheckpointSeconds their total wall time.
	Checkpoints       int64
	CheckpointSeconds float64
}

// StorageStats returns the index's durability telemetry; ok is false
// for in-memory indexes (the stats are then zero).
func (ix *Index) StorageStats() (st StorageStats, ok bool) {
	if ix.dir == nil {
		return StorageStats{}, false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ds := ix.dir.Stats()
	return StorageStats{
		WALAppends:        ds.WAL.Appends,
		WALAppendSeconds:  float64(ds.WAL.AppendNanos) / 1e9,
		WALFsyncSeconds:   float64(ds.WAL.FsyncNanos) / 1e9,
		Checkpoints:       ds.Checkpoints,
		CheckpointSeconds: float64(ds.CheckpointNanos) / 1e9,
	}, true
}

// EngineStats is the resident engine's maintenance telemetry: the RCU
// write side (snapshot swaps, copy-on-write clone time), the probe
// scratch pool's hit rate and the lazy q-gram builds.
type EngineStats struct {
	// Upserts counts maintenance batches applied (bulk load counts as
	// one); SnapshotSwaps per-shard snapshot publications — one per
	// touched shard per batch.
	Upserts       uint64
	SnapshotSwaps uint64
	// CloneSeconds is the cumulative time spent deriving the writable
	// successors of shard snapshots for upserts — the write-side price
	// of lock-free probes: directory and overlay copies, not the shard.
	CloneSeconds float64
	// ScratchGets counts scratch-pool checkouts on the approximate
	// probe, batch and upsert paths; ScratchMisses how many had to
	// allocate fresh (typically after a GC cycle emptied the pool).
	// 1 - ScratchMisses/ScratchGets is the pool hit rate.
	ScratchGets   uint64
	ScratchMisses uint64
	// QGramBuilds counts the shards whose q-gram structures an
	// approximate probe has built — each shard's first one pays the
	// build, later ones find it — and QGramBuildKeys the keys those
	// builds decomposed. QGramBuildSeconds is their cumulative wall
	// time: QGramBuildSeconds/QGramBuilds is what a first escalation
	// into a shard waits for. QGramBuiltShards is how many shards hold
	// q-gram structures now (an index never probed approximately: 0).
	QGramBuilds       uint64
	QGramBuildKeys    uint64
	QGramBuildSeconds float64
	QGramBuiltShards  int
	// QGramPostingBytes is the footprint of the built shards' posting
	// lists: the encoded bytes of their delta-coded blocks plus 4 bytes
	// per ref in their uncompressed tails — about 1.2 bytes per posting
	// against 4 stored flat.
	QGramPostingBytes int64
}

// EngineStats returns the resident engine's maintenance telemetry.
// Reading it is lock-free and safe concurrently with probes and
// upserts.
func (ix *Index) EngineStats() EngineStats {
	sr, ok := ix.resident().(*join.ShardedRefIndex)
	if !ok {
		return EngineStats{}
	}
	ms := sr.MaintStats()
	return EngineStats{
		Upserts:       ms.Upserts,
		SnapshotSwaps: ms.SnapshotSwaps,
		CloneSeconds:  float64(ms.CloneNanos) / 1e9,
		ScratchGets:   ms.ScratchGets,
		ScratchMisses: ms.ScratchNews,

		QGramBuilds:       ms.QGramBuilds,
		QGramBuildKeys:    ms.QGramBuildKeys,
		QGramBuildSeconds: float64(ms.QGramBuildNanos) / 1e9,
		QGramBuiltShards:  ms.BuiltShards,
		QGramPostingBytes: int64(ms.QGramPostingBytes),
	}
}
