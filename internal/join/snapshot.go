package join

import (
	"fmt"
	"iter"
	"math"
	"slices"

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
// A view is plain data. One exported from a live index holds the
// index's immutable shard snapshots and reads its store from them; treat
// it as read-only, and encode it rather than import it. One decoded from
// disk carries its store as Tuples.
type SnapshotView struct {
	// Cfg is the matching configuration the index was built under.
	Cfg Config
	// NShard is the shard count; a key's home shard is shard-count-
	// dependent, so a snapshot reloads only at its own count.
	NShard int
	// Tuples is the global store in ref order, nil in a view from
	// ExportSnapshot; Len and Store read either kind.
	Tuples []relation.Tuple
	// Shards has one export per shard, in shard order: the key-hash
	// partition of Tuples, which a load derives and checks these
	// against. Nil means the view carries the store alone — what a
	// decoder hands over for a snapshot written under the retired
	// prefix-replicated layout — and there is nothing to check.
	Shards []ShardExport

	// stores, set by ExportSnapshot instead of Tuples, are the shard
	// snapshots whose tuple stores Store merges into ref order.
	stores []*shardSnap
}

// Len is the size of the view's tuple store.
func (v *SnapshotView) Len() int {
	if v.stores != nil {
		return v.members()
	}
	return len(v.Tuples)
}

// Store walks the view's tuple store in ref order: Tuples, or for a
// view from ExportSnapshot the shard stores, merged by their member refs
// (each shard's ascend, and together they are the refs 0..Len-1).
func (v *SnapshotView) Store() iter.Seq[relation.Tuple] {
	if v.stores == nil {
		return slices.Values(v.Tuples)
	}
	return func(yield func(relation.Tuple) bool) {
		// A block of refs at a time: each shard's members in the block are
		// the next run of its member refs, each noted at its place in the
		// block by shard and local ref.
		const block = 256
		type at struct{ sh, lref uint32 }
		var buf [block]at
		next := make([]int, len(v.stores)) // each shard's first unread local ref
		for lo, n := 0, v.members(); lo < n; lo += block {
			hi := min(lo+block, n)
			for sh := range v.stores {
				globals, l := v.Shards[sh].Globals, next[sh]
				for ; l < len(globals) && int(globals[l]) < hi; l++ {
					buf[int(globals[l])-lo] = at{uint32(sh), uint32(l)}
				}
				next[sh] = l
			}
			for _, a := range buf[:hi-lo] {
				if !yield(v.stores[a.sh].tuples.At(int(a.lref))) {
					return
				}
			}
		}
	}
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
// are never mutated, only superseded, so the view reads the store and
// the member refs from them afterwards, whatever is upserted meanwhile.
// The view holds nothing per tuple: Tuples is nil, and Store merges the
// shard stores into ref order by their member refs. Probes are not
// disturbed, and no key is decomposed.
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
	v := &SnapshotView{Cfg: s.cfg, NShard: s.nshard, Shards: make([]ShardExport, s.nshard), stores: snaps}
	for i, sn := range snaps {
		// A published generation's member refs are never written again:
		// later ones append past their length.
		v.Shards[i] = ShardExport{Globals: sn.globals[:len(sn.globals):len(sn.globals)]}
	}
	return v, nil
}

// members is the number of member refs the view's shards list.
func (v *SnapshotView) members() (n int) {
	for _, se := range v.Shards {
		n += len(se.Globals)
	}
	return n
}

// NewShardedRefIndexFromSnapshot reconstructs a resident index from a
// snapshot view with its store in Tuples, as a decoder hands it over;
// the index copies the tuples' bytes into its shards and keeps nothing
// of the view. A view exported from a live index is encoded, not
// imported.
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
	if v.stores != nil {
		return nil, fmt.Errorf("join: a view of live shard stores is encoded, not imported")
	}
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
