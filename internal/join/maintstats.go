package join

import "sync/atomic"

// maintCounters are the resident index's maintenance/telemetry
// counters. All fields are atomics updated off the exact-probe path:
// the exact probe hot path (AppendProbeExact) touches none of them, so
// its zero-allocation, zero-atomic-write contract is untouched; the
// approximate path and the writers pay one atomic add per pool
// checkout, which allocates nothing.
type maintCounters struct {
	upserts     atomic.Uint64
	snapSwaps   atomic.Uint64
	cloneNanos  atomic.Int64
	scratchGets atomic.Uint64
	scratchNews atomic.Uint64

	qgramBuilds     atomic.Uint64
	qgramBuildKeys  atomic.Uint64
	qgramBuildNanos atomic.Int64
}

// MaintStats is a snapshot of the sharded resident index's maintenance
// and scratch-pool telemetry, for operators watching RCU behaviour
// under live traffic.
type MaintStats struct {
	// Upserts counts Upsert batches applied (bulk load counts as one).
	Upserts uint64
	// SnapshotSwaps counts per-shard snapshot publications: one per
	// touched shard per upsert, one per shard for a bulk load (an upsert
	// into an empty index is one).
	SnapshotSwaps uint64
	// CloneNanos is the cumulative time spent deriving the writable
	// successors of shard snapshots for upserts, in nanoseconds — the
	// write-side price of lock-free probes (see shardSnap.clone).
	CloneNanos int64
	// ScratchGets counts scratch-pool checkouts on the approximate
	// probe, batch and upsert paths; ScratchNews how many of them had
	// to allocate a fresh scratch (a pool miss, typically after a GC
	// cycle emptied the pool). Gets-to-news is the pool hit rate.
	ScratchGets uint64
	ScratchNews uint64
	// QGramBuilds counts lazy q-gram builds: one per shard, by the first
	// approximate probe to reach it. QGramBuildKeys is the keys those
	// builds decomposed, QGramBuildNanos their cumulative wall time — the
	// latency a session's first escalation pays — and BuiltShards how
	// many shards currently hold q-gram structures.
	QGramBuilds     uint64
	QGramBuildKeys  uint64
	QGramBuildNanos int64
	BuiltShards     int
	// QGramPostingBytes is what the built shards' postings occupy:
	// encoded block bytes plus 4 bytes per uncompressed tail ref
	// (hashidx.QGramIndex.PostingBytes).
	QGramPostingBytes int
}

// MaintStats returns a point-in-time snapshot of the maintenance
// counters. Safe for concurrent use.
func (s *ShardedRefIndex) MaintStats() MaintStats {
	built, postingBytes := 0, 0
	for sh := range s.shards {
		if qg := s.shards[sh].Load().qgIdx; qg != nil {
			built++
			postingBytes += qg.PostingBytes()
		}
	}
	return MaintStats{
		Upserts:         s.maint.upserts.Load(),
		SnapshotSwaps:   s.maint.snapSwaps.Load(),
		CloneNanos:      s.maint.cloneNanos.Load(),
		ScratchGets:     s.maint.scratchGets.Load(),
		ScratchNews:     s.maint.scratchNews.Load(),
		QGramBuilds:     s.maint.qgramBuilds.Load(),
		QGramBuildKeys:  s.maint.qgramBuildKeys.Load(),
		QGramBuildNanos: s.maint.qgramBuildNanos.Load(),
		BuiltShards:     built,

		QGramPostingBytes: postingBytes,
	}
}

// getScratch checks a scratch out of the pool, counting checkouts (the
// pool's New counts the misses).
func (s *ShardedRefIndex) getScratch() *shardScratch {
	s.maint.scratchGets.Add(1)
	return s.pool.Get().(*shardScratch)
}
