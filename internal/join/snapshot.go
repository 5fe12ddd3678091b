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
// refs and its dictionary-encoded q-gram index. Everything else a
// running index carries — the exact hash tables, the postings tables —
// is derivable from these in linear passes with no gram re-hashing and
// no key re-decomposition, which is what keeps a snapshot load cheap:
// the expensive artifacts of indexing (the gram dictionary, the
// id-encoded signatures) travel as plain arrays.
//
// A view exported from a live index holds that index's immutable RCU
// snapshots; treat it as read-only. Its shard sections are pending: a
// live index keeps no signatures, so they are derived when an encoder
// reaches the section (QGramSection) or all at once (Resolve). A view
// decoded from disk is plain data owned by the decoder's caller and is
// adopted wholesale by NewShardedRefIndexFromSnapshot.
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
	// QGrams is the shard's dictionary-encoded inverted index. It is
	// zero while pending — the frozen generation to derive it from — is set.
	QGrams  hashidx.QGramExport
	pending *hashidx.QGramIndex
}

// QGramSection returns the shard's q-gram export: QGrams, or for a
// pending section the export derived here into sc, valid until sc's
// next use.
func (se *ShardExport) QGramSection(sc *hashidx.ExportScratch) hashidx.QGramExport {
	if se.pending == nil {
		return se.QGrams
	}
	// Compacted: a snapshot boundary is the one representation-change-
	// safe point, so dictionary entries left dangling by eviction are
	// dropped here instead of accreting in every checkpoint forever.
	return se.pending.ExportCompactedInto(sc)
}

// Resolve derives every pending shard section into the view's own
// arrays and returns the view, now plain data like a decoded one.
func (v *SnapshotView) Resolve() *SnapshotView {
	for i := range v.Shards {
		se := &v.Shards[i]
		se.QGrams, se.pending = se.QGramSection(new(hashidx.ExportScratch)), nil
	}
	return v
}

// ExportSnapshot returns a consistent view of the whole index: the
// shard snapshots are loaded under the writer lock, so no upsert can
// publish between two loads, and for those loads only — RCU snapshots
// are never mutated, only superseded, so the store is gathered and the
// shard sections derived from them afterwards, whatever is upserted
// meanwhile. Probes are not disturbed.
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
		v.Shards[i] = ShardExport{Globals: globals, pending: sn.qgIdx}
	}
	return v, nil
}

// NewShardedRefIndexFromSnapshot reconstructs a resident index from a
// snapshot view, adopting the view's slices (the caller hands over
// ownership; a view exported from a live index must not be imported
// into a second one that will be upserted).
//
// The reconstruction is the cheap inverse of indexing: dictionaries are
// adopted as-is and signatures transposed into postings by
// hashidx.ImportQGramIndex, shard tuple stores are resolved by indexing
// the global store with each shard's Globals, and the exact hash tables
// are rebuilt with one map insertion per key — no gram is re-hashed, no
// key is re-decomposed.
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
	for i, se := range v.Resolve().Shards {
		qg, err := hashidx.ImportQGramIndex(s.ex, se.QGrams)
		if err != nil {
			return nil, fmt.Errorf("join: snapshot shard %d: %w", i, err)
		}
		if qg.Indexed() != len(se.Globals) {
			return nil, fmt.Errorf("join: snapshot shard %d: q-gram index absorbed %d refs, shard lists %d", i, qg.Indexed(), len(se.Globals))
		}
		sn := &shardSnap{
			globals: make([]int, len(se.Globals)),
			exIdx:   hashidx.NewExactIndex(),
			qgIdx:   qg,
		}
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
