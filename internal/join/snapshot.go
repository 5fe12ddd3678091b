package join

import (
	"fmt"
	"math"

	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/relation"
)

// SnapshotView is the serializable state of a ShardedRefIndex: the
// global tuple store in ref order plus, per shard, the shard's member
// refs. Everything else a running index carries — the exact hash
// tables, and the q-gram structures of the shards that probes have built
// — is derived from the store, so a snapshot load is a bulk build of the
// stored tuple store with no gram hashed and no key decomposed, and each
// shard is built from its keys when its first approximate probe needs
// it (§2.3's lazy maintenance: the q-gram index is derived data). The
// member refs are derived too; a load checks them against the build.
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
	// partition of Tuples, which a load derives and checks these
	// against. Nil means the view carries the store alone — what a
	// decoder hands over for a snapshot written under the retired
	// prefix-replicated layout — and there is nothing to check.
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
		for lref, g := range sn.globals {
			v.Tuples[g] = sn.tuples.At(lref)
		}
		// A published generation's member refs are never written again:
		// later ones append past their length.
		v.Shards[i] = ShardExport{Globals: sn.globals[:len(sn.globals):len(sn.globals)]}
	}
	return v, nil
}

// NewShardedRefIndexFromSnapshot reconstructs a resident index from a
// snapshot view, adopting the view's tuples (the caller hands over
// ownership; a view exported from a live index must not be imported
// into a second one that will be upserted).
//
// A load is a bulk build of the stored tuple store: buildFromStore
// partitions and indexes it exactly as a bulk load does — one map
// insertion per key, no gram hashed, no key decomposed, every shard
// unbuilt — and rejects a key stored twice. Stored member refs, where
// the view has them, are checked against it: each shard's Globals must
// be the membership the build derived, so refs out of range or out of
// order, a key outside its home shard or a store the shards do not
// cover all yield a descriptive error, never an index that can
// misbehave later. A view without them (a version 1 or 2 image) is the
// same build with nothing to check.
func NewShardedRefIndexFromSnapshot(v *SnapshotView) (*ShardedRefIndex, error) {
	if v.Shards != nil && len(v.Shards) != v.NShard {
		return nil, fmt.Errorf("join: snapshot carries %d shard exports for %d shards", len(v.Shards), v.NShard)
	}
	s, err := buildFromStore(v.Cfg, v.NShard, v.Tuples)
	if err != nil {
		return nil, err
	}
	for i, se := range v.Shards {
		derived := s.shards[i].Load().globals
		if len(se.Globals) != len(derived) {
			return nil, fmt.Errorf("join: snapshot shard %d lists %d members, the keys homed there number %d", i, len(se.Globals), len(derived))
		}
		for lref, g := range se.Globals {
			if g != derived[lref] {
				return nil, fmt.Errorf("join: snapshot shard %d lists global ref %d at local %d, where the store's key homes give %d", i, g, lref, derived[lref])
			}
		}
	}
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
