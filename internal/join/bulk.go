package join

import (
	"runtime"
	"sync"

	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
)

// BuildShardedRefIndex bulk-loads a resident index: decompose every
// key and find its home shard first, then build each shard's structures
// with dense in-order inserts, and publish once at the end. The result
// is identical to NewShardedRefIndex followed by one Upsert of the whole
// batch (same refs, same dictionaries, same postings — pinned by the
// bulk differential test), but the construction avoids the upsert
// path's copy-on-write machinery entirely and runs the two expensive
// phases — gram decomposition and per-shard index builds — in parallel
// across the host's cores. This is the load path for multi-million-row
// reference tables; against N single Upserts (each of which clones and
// republishes its home shard) it is asymptotically O(n) instead of
// O(n²). It is also how a snapshot written under another layout is
// brought into this one (see NewShardedRefIndexFromSnapshot).
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
	// batch assigns them.
	final := make([]relation.Tuple, 0, len(tuples))
	for _, t := range tuples {
		if g, ok := s.newest[t.Key]; ok {
			final[g] = t
			continue
		}
		s.newest[t.Key] = len(final)
		final = append(final, t)
	}
	n := len(final)

	// Pass 2 — decompose every key and hash it to its home shard, in
	// parallel over ref ranges. Each worker owns a decomposition arena
	// that must outlive pass 3 (the shard builds read the scratch-backed
	// Keys), so the scratches are plain locals captured per worker, not
	// pooled.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	keys := make([]qgram.Key, n)
	home := make([]int32, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var dsc qgram.Scratch
			for i := lo; i < hi; i++ {
				keys[i] = s.ex.Decompose(&dsc, final[i].Key)
				home[i] = int32(shardmap.ShardOf(final[i].Key, s.nshard))
			}
		}(lo, hi)
	}
	wg.Wait()

	// Sort members into shards. Walking refs ascending keeps every
	// shard's member list in ascending global-ref order — the same
	// insert order the upsert path produces, so dictionaries intern
	// grams identically and the differential harness can hold the two
	// builds to full equality.
	members := make([][]int32, s.nshard)
	for i, sh := range home {
		members[sh] = append(members[sh], int32(i))
	}

	// Pass 3 — per-shard dense builds, in parallel across shards.
	snaps := make([]*shardSnap, s.nshard)
	for sh := 0; sh < s.nshard; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			ms := members[sh]
			sn := s.shards[sh].Load().clone()
			sn.tuples = make([]relation.Tuple, 0, len(ms))
			sn.keys = make([]string, 0, len(ms))
			sn.globals = make([]int, 0, len(ms))
			for _, g := range ms {
				sn.add(final[g], int(g), keys[g])
			}
			snaps[sh] = sn
		}(sh)
	}
	wg.Wait()

	// Publish: global store first (no probe may resolve a ref the store
	// cannot), then every shard.
	s.store.Store(newGlobalStore(final))
	for sh, sn := range snaps {
		s.shards[sh].Store(sn)
	}
	s.maint.upserts.Add(1)
	s.maint.snapSwaps.Add(uint64(s.nshard))
	return s, nil
}
