package join

import (
	"fmt"
	"math"

	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
)

// SnapshotView is the serializable state of a ShardedRefIndex: the
// global tuple store in ref order plus, per shard, the shard's member
// refs. Everything else a running index carries — the exact hash
// tables, and the q-gram structures of the shards that probes have built
// — is derived from the store and the member refs, so a snapshot load is
// linear passes with no gram hashed and no key decomposed, and each
// shard is built from its keys when its first approximate probe needs
// it (§2.3's lazy maintenance: the q-gram index is derived data).
//
// A view is plain data. One exported from a live index shares the
// index's immutable tuple payloads; treat it as read-only. One decoded
// from disk is owned by the decoder's caller.
type SnapshotView struct {
	// Cfg is the matching configuration the index was built under.
	Cfg Config
	// NShard is the shard count; a key's home shard is shard-count-
	// dependent, so a snapshot reloads only at its own count.
	NShard int
	// Tuples is the global store in ref order (Len() == len(Tuples)).
	Tuples []relation.Tuple
	// Shards has one export per shard, in shard order: the key-hash
	// partition of Tuples. Nil means the view carries the store alone —
	// what a decoder hands over for a snapshot written under the
	// retired prefix-replicated layout — and the importer partitions
	// and indexes Tuples itself.
	Shards []ShardExport
}

// ShardExport is one shard's slice of a SnapshotView.
type ShardExport struct {
	// Globals maps the shard's local refs (ascending, dense) to global
	// refs, strictly ascending by construction of the upsert path.
	Globals []uint32
}

// ExportSnapshot returns a consistent view of the whole index: the
// shard snapshots are loaded under the writer lock, so no upsert can
// publish between two loads, and for those loads only — RCU snapshots
// are never mutated, only superseded, so the store and the member refs
// are gathered from them afterwards, whatever is upserted meanwhile.
// Probes are not disturbed, and no key is decomposed.
func (s *ShardedRefIndex) ExportSnapshot() (*SnapshotView, error) {
	snaps := make([]*shardSnap, s.nshard)
	s.mu.Lock()
	for i := range snaps {
		snaps[i] = s.shards[i].Load()
	}
	n := s.Len()
	s.mu.Unlock()
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("join: snapshot of %d tuples exceeds the format's uint32 ref space", n)
	}
	v := &SnapshotView{
		Cfg:    s.cfg,
		NShard: s.nshard,
		Tuples: make([]relation.Tuple, n),
		Shards: make([]ShardExport, s.nshard),
	}
	for i, sn := range snaps {
		globals := make([]uint32, len(sn.globals))
		for lref, g := range sn.globals {
			globals[lref] = uint32(g)
			v.Tuples[g] = sn.tuples.At(lref)
		}
		v.Shards[i] = ShardExport{Globals: globals}
	}
	return v, nil
}

// NewShardedRefIndexFromSnapshot reconstructs a resident index from a
// snapshot view, adopting the view's slices (the caller hands over
// ownership; a view exported from a live index must not be imported
// into a second one that will be upserted).
//
// The reconstruction is the cheap inverse of indexing: shard tuple
// stores are resolved by indexing the global store with each shard's
// Globals and the exact hash tables rebuilt with one map insertion per
// key — no gram is hashed, no key is decomposed. Every shard comes up
// unbuilt.
// Every cross-structure invariant is validated on the way (refs in
// range, Globals strictly ascending, every key in its home shard and no
// other, one store record per key — a duplicate is a second hit in its
// home shard's exact index), so a corrupted snapshot yields a
// descriptive error, never an index that can misbehave later.
//
// A view without shard exports is indexed from its store through
// BuildShardedRefIndex: adopting shard sections of another layout under
// this write path would leave stale replicas behind the first update.
func NewShardedRefIndexFromSnapshot(v *SnapshotView) (*ShardedRefIndex, error) {
	if v.Shards == nil {
		return BuildShardedRefIndex(v.Cfg, v.NShard, v.Tuples)
	}
	s, err := NewShardedRefIndex(v.Cfg, v.NShard)
	if err != nil {
		return nil, err
	}
	if len(v.Shards) != v.NShard {
		return nil, fmt.Errorf("join: snapshot carries %d shard exports for %d shards", len(v.Shards), v.NShard)
	}
	n := len(v.Tuples)
	members := 0
	for i, se := range v.Shards {
		sn := newShardSnap()
		sn.globals = make([]int, len(se.Globals))
		prev := -1
		for lref, g := range se.Globals {
			if int(g) >= n || int(g) <= prev {
				return nil, fmt.Errorf("join: snapshot shard %d: global ref %d at local %d not strictly ascending within store of %d", i, g, lref, n)
			}
			prev = int(g)
			t := v.Tuples[g]
			if home := shardmap.ShardOf(t.Key, v.NShard); home != i {
				return nil, fmt.Errorf("join: snapshot shard %d holds key %q, whose home is shard %d", i, t.Key, home)
			}
			if dup := sn.exIdx.Lookup(t.Key); len(dup) > 0 {
				return nil, fmt.Errorf("join: snapshot store has key %q at both ref %d and %d (the store is keyed)", t.Key, sn.globals[dup[0]], g)
			}
			sn.tuples.Append(t)
			sn.globals[lref] = int(g)
			sn.exIdx.Insert(lref, t.Key)
		}
		s.shards[i].Store(sn)
		members += len(se.Globals)
	}
	// Every member sits in its home shard once, so an equal count means
	// the shards partition the store.
	if members != n {
		return nil, fmt.Errorf("join: snapshot shards list %d members for a store of %d tuples", members, n)
	}
	s.n.Store(int64(n))
	return s, nil
}

// CheckShardSection validates the q-gram section a version 3 or 4
// snapshot stored for a shard with the given member count:
// hashidx.CheckSection's invariants, and one size per member. The
// decoder calls it on the image in place; nothing of the section is
// kept.
func CheckShardSection(members int, grams []string, sizes []uint32, sigFloor, nsigs int, sig func(ref int) []uint32) error {
	if err := hashidx.CheckSection(grams, sizes, sigFloor, nsigs, sig); err != nil {
		return err
	}
	if len(sizes) != members {
		return fmt.Errorf("q-gram index absorbed %d refs, shard lists %d", len(sizes), members)
	}
	return nil
}
