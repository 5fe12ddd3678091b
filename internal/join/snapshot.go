package join

import (
	"fmt"
	"iter"
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
// member refs are derived too; a load checks them against the build
// (LoadShardedRefIndex).
//
// A view is what an encoder reads: its store's length and a walk of it,
// set by ExportSnapshot, which reads the index's immutable shard
// snapshots, or by a bulk build's persist, which reads the build's rows.
// Treat it as read-only.
type SnapshotView struct {
	// Cfg is the matching configuration the index was built under.
	Cfg Config
	// NShard is the shard count; a key's home shard is shard-count-
	// dependent, so a snapshot reloads only at its own count.
	NShard int
	// Shards holds each shard's member refs, in shard order: the
	// global refs of the tuples homed there (the key-hash partition of
	// the store), ascending, a local ref indexing its shard's list.
	Shards [][]uint32

	n     int
	store iter.Seq[relation.Tuple]
}

// Len is the size of the view's tuple store.
func (v *SnapshotView) Len() int { return v.n }

// Store walks the view's tuple store in ref order.
func (v *SnapshotView) Store() iter.Seq[relation.Tuple] { return v.store }

// ExportSnapshot returns a consistent view of the whole index: the
// shard snapshots are loaded under the writer lock, so no upsert can
// publish between two loads, and for those loads only — RCU snapshots
// are never mutated, only superseded, so the view reads the store and
// the member refs from them afterwards, whatever is upserted meanwhile.
// The view holds nothing per tuple: its store is the shard stores,
// merged into ref order by their member refs. Probes are not disturbed,
// and no key is decomposed.
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
	v := &SnapshotView{Cfg: s.cfg, NShard: s.nshard, Shards: make([][]uint32, s.nshard), n: n}
	for i, sn := range snaps {
		// A published generation's member refs are never written again:
		// later ones append past their length.
		v.Shards[i] = sn.globals[:len(sn.globals):len(sn.globals)]
	}
	// The store merges the shard stores by their member refs (each
	// shard's ascend, and together they are the refs 0..n-1).
	v.store = func(yield func(relation.Tuple) bool) {
		// A block of refs at a time: each shard's members in the block are
		// the next run of its member refs, each noted at its place in the
		// block by shard and local ref.
		const block = 256
		type at struct{ sh, lref uint32 }
		var buf [block]at
		next := make([]int, len(snaps)) // each shard's first unread local ref
		for lo := 0; lo < n; lo += block {
			hi := min(lo+block, n)
			for sh, sn := range snaps {
				l := next[sh]
				for ; l < len(sn.globals) && int(sn.globals[l]) < hi; l++ {
					buf[int(sn.globals[l])-lo] = at{uint32(sh), uint32(l)}
				}
				next[sh] = l
			}
			for _, a := range buf[:hi-lo] {
				if !yield(snaps[a.sh].tuples.At(int(a.lref))) {
					return
				}
			}
		}
	}
	return v, nil
}

// LoadShardedRefIndex builds the index a snapshot stores: rows is its
// tuple store in ref order, and members, where the snapshot has them,
// its shards' member refs. The index copies the rows' bytes into its
// shards and keeps nothing of them.
//
// A load is a bulk build of the stored tuple store: it partitions and
// indexes the rows exactly as a bulk load does — one map insertion per
// key, no gram hashed, no key decomposed, every shard unbuilt — and
// rejects a key stored twice. The stored member refs are then checked
// against it, read in order off members: each shard's must be the
// membership the build derived, so refs out of range or out of order, a
// key outside its home shard or a store the shards do not cover all
// yield a descriptive error, never an index that can misbehave later. A
// snapshot without them (nil members, a version 1 or 2 image) is the
// same build with nothing to check.
func LoadShardedRefIndex(cfg Config, shards int, rows Rows, members Members) (*ShardedRefIndex, error) {
	if members != nil && members.Shards() != shards {
		return nil, fmt.Errorf("join: snapshot carries %d shard exports for %d shards", members.Shards(), shards)
	}
	s, err := NewShardedRefIndex(cfg, shards)
	if err != nil {
		return nil, err
	}
	if s, err = s.bulk(rows).build(nil); err != nil {
		return nil, err
	}
	if members == nil {
		return s, nil
	}
	for i := range shards {
		derived := s.shards[i].Load().globals
		if c := members.List(); c != len(derived) {
			return nil, fmt.Errorf("join: snapshot shard %d lists %d members, the keys homed there number %d", i, c, len(derived))
		}
		for lref, want := range derived {
			if g := members.Ref(); g != want {
				return nil, fmt.Errorf("join: snapshot shard %d lists global ref %d at local %d, where the store's key homes give %d", i, g, lref, want)
			}
		}
	}
	return s, nil
}

// Members is a snapshot's stored member refs, read in order: Shards
// lists, in shard order, each read as its length (List) and then that
// many refs (Ref). A load reads them once, so a decoder can hand out a
// cursor over its image rather than decoded lists.
type Members interface {
	// Shards is the number of lists.
	Shards() int
	// List starts the next list and returns its length.
	List() int
	// Ref returns the current list's next ref.
	Ref() uint32
}

// MemberLists is member refs decoded into one list per shard, as
// Members; nil lists are no member refs, nil.
func MemberLists(lists [][]uint32) Members {
	if lists == nil {
		return nil
	}
	return &memberLists{lists: lists, sh: -1}
}

type memberLists struct {
	lists [][]uint32
	sh, i int // the current list, and the next ref in it
}

func (m *memberLists) Shards() int { return len(m.lists) }

func (m *memberLists) List() int {
	m.sh, m.i = m.sh+1, 0
	return len(m.lists[m.sh])
}

func (m *memberLists) Ref() uint32 {
	m.i++
	return m.lists[m.sh][m.i-1]
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
