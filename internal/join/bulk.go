package join

import (
	"fmt"
	"sync"

	"adaptivelink/internal/cow"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
)

// BuildShardedRefIndex bulk-loads a resident index: a keyed last-wins
// dedup of the batch, then the one construction routine (buildFromStore)
// over what survives. The result is identical to NewShardedRefIndex
// followed by one Upsert of the whole batch (same refs, same stores, and
// once built the same dictionaries and postings — pinned by the bulk
// differential test), but the construction skips the upsert path's
// snapshot publication and runs the inserts, shard by shard, in parallel
// across the host's cores. This is the load path for multi-million-row
// reference tables.
//
// The keyed-store contract applies as everywhere: one resident record
// per join key, newest payload wins, refs assigned in first-seen key
// order.
func BuildShardedRefIndex(cfg Config, shards int, tuples []relation.Tuple) (*ShardedRefIndex, error) {
	// Refs are first-seen key order, payloads the last occurrence's,
	// exactly as one Upsert of the whole batch assigns them. The map dies
	// with the build: a resident key is found through its home shard's
	// exact index.
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
	s, err := buildFromStore(cfg, shards, final)
	if err != nil {
		return nil, err
	}
	if len(final) > 0 {
		s.maint.upserts.Add(1)
		s.maint.snapSwaps.Add(uint64(s.nshard))
	}
	return s, nil
}

// buildFromStore is the one construction routine of a resident index,
// behind bulk loads and snapshot loads of every version alike: a load is
// a bulk build of the stored tuple store. It takes a keyed store in ref
// order, homes every key at shardmap.ShardOf, and builds each shard's
// tuple store and exact index with dense in-order inserts, in parallel
// across shards. Walking refs ascending keeps every shard's member list
// ascending — the insert order the upsert path produces, so a shard's
// dictionary, once built, interns grams identically. No key is
// decomposed: every shard is published unbuilt, its q-gram structures
// left to its first approximate probe. A key met twice is an error
// naming both refs (the store is keyed).
func buildFromStore(cfg Config, shards int, store []relation.Tuple) (*ShardedRefIndex, error) {
	s, err := NewShardedRefIndex(cfg, shards)
	if err != nil || len(store) == 0 {
		return s, err
	}
	homes := make([]int32, len(store))
	counts := make([]int, shards)
	for g, t := range store {
		sh := shardmap.ShardOf(t.Key, shards)
		homes[g] = int32(sh)
		counts[sh]++
	}
	snaps := make([]*shardSnap, shards)
	for sh := range snaps {
		snaps[sh] = newShardSnap()
		snaps[sh].globals = make([]uint32, 0, counts[sh])
		snaps[sh].exIdx = cow.NewMap[int32](counts[sh])
	}
	for g, sh := range homes {
		snaps[sh].globals = append(snaps[sh].globals, uint32(g))
	}

	errs := make([]error, shards)
	var wg sync.WaitGroup
	for sh, sn := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lref, g := range sn.globals {
				sn.tuples.Append(store[g])
				sn.exIdx.Put(store[g].Key, int32(lref))
			}
			// Fewer keys than members: some key sits in the shard twice.
			if sn.exIdx.Len() != len(sn.globals) {
				errs[sh] = sn.duplicateKey()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Publish: the count first (no probe may return a ref at or above
	// Len), then every shard.
	s.n.Store(int64(len(store)))
	for sh, sn := range snaps {
		s.shards[sh].Store(sn)
	}
	return s, nil
}

// duplicateKey names the first key met twice in a shard's member order,
// by the global refs of its first two occurrences. The exact index kept
// the last occurrence of each key, so the scan keeps its own.
func (sn *shardSnap) duplicateKey() error {
	first := make(map[string]uint32, len(sn.globals))
	for lref, g := range sn.globals {
		key := sn.key(lref)
		if f, ok := first[key]; ok {
			return fmt.Errorf("join: store has key %q at both ref %d and %d (the store is keyed)", key, f, g)
		}
		first[key] = g
	}
	return nil
}
