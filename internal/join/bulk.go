package join

import (
	"sync"

	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
)

// BuildShardedRefIndex bulk-loads a resident index: find every key's
// home shard first, then build each shard's tuple store and exact index
// with dense in-order inserts, and publish once at the end, every shard
// unbuilt. The result is identical to NewShardedRefIndex followed by
// one Upsert of the whole batch (same refs, same stores, and once
// built the same dictionaries and postings — pinned by the bulk
// differential test), but the construction skips the upsert path's
// snapshot publication and runs the inserts, shard by shard, in
// parallel across the host's cores. This is the load path for
// multi-million-row reference tables, and how a snapshot written under
// another layout is brought into this one (see
// NewShardedRefIndexFromSnapshot).
//
// The keyed-store contract applies as everywhere: one resident record
// per join key, newest payload wins, refs assigned in first-seen key
// order.
func BuildShardedRefIndex(cfg Config, shards int, tuples []relation.Tuple) (*ShardedRefIndex, error) {
	s, err := NewShardedRefIndex(cfg, shards)
	if err != nil {
		return nil, err
	}
	if len(tuples) == 0 {
		return s, nil
	}

	// Pass 1 — keyed last-wins dedup. Refs are first-seen key order,
	// payloads the last occurrence's, exactly as one Upsert of the whole
	// batch assigns them. The map dies with the build: a resident key is
	// found through its home shard's exact index.
	final := make([]relation.Tuple, 0, len(tuples))
	seen := make(map[string]int, len(tuples))
	for _, t := range tuples {
		if g, ok := seen[t.Key]; ok {
			final[g] = t
			continue
		}
		seen[t.Key] = len(final)
		final = append(final, t)
	}

	// Pass 2 — hash every key to its home shard and sort the members
	// into shards. Walking refs ascending keeps every shard's member
	// list in ascending global-ref order — the same insert order the
	// upsert path produces, so a shard's dictionary, once built, interns
	// grams identically and the differential harness can hold the two
	// builds to full equality.
	members := make([][]int32, s.nshard)
	for i, t := range final {
		sh := shardmap.ShardOf(t.Key, s.nshard)
		members[sh] = append(members[sh], int32(i))
	}

	// Pass 3 — per-shard dense builds of the tuple stores and exact
	// indexes, in parallel across shards. No key is decomposed: the
	// q-gram structures are built by a shard's first approximate probe.
	snaps := make([]*shardSnap, s.nshard)
	var wg sync.WaitGroup
	for sh := range snaps {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			ms := members[sh]
			sn := newShardSnap()
			sn.globals = make([]int, 0, len(ms))
			for _, g := range ms {
				sn.add(final[g], int(g), qgram.Key{})
			}
			snaps[sh] = sn
		}(sh)
	}
	wg.Wait()

	// Publish: the count first (no probe may return a ref at or above
	// Len), then every shard.
	s.n.Store(int64(len(final)))
	for sh, sn := range snaps {
		s.shards[sh].Store(sn)
	}
	s.maint.upserts.Add(1)
	s.maint.snapSwaps.Add(uint64(s.nshard))
	return s, nil
}
