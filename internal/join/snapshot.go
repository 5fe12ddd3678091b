package join

import (
	"fmt"
	"math"

	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
)

// SnapshotView is the serializable state of a ShardedRefIndex: the
// global tuple store in ref order plus, per shard, the shard's member
// refs and its dictionary-encoded q-gram index. Everything else a
// running index carries — the exact hash tables, and the q-gram
// structures of the shards that probes have built — is derived from
// the store and the member refs, so a snapshot load is linear passes
// with no gram hashed and no key decomposed: the q-gram sections are
// validated and left behind, and each shard is built from its keys when
// its first approximate probe needs it.
//
// A view exported from a live index holds that index's immutable RCU
// snapshots; treat it as read-only. Its shard sections are pending: a
// live index keeps no signatures, so they are derived when an encoder
// reaches the section (QGramSection) or all at once (Resolve) — from a
// built shard's postings, or from an unbuilt shard's keys, to the same
// bytes. A view decoded from disk is plain data owned by the decoder's
// caller, carrying the store and the member refs; its sections are
// derived from its keys the same way.
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
	// QGrams is the shard's dictionary-encoded inverted index when the
	// view carries it as data (Resolve). It is zero while the section is
	// pending: derived from gen's postings if that generation is built,
	// else from the shard's keys.
	QGrams hashidx.QGramExport
	gen    *shardSnap
}

// QGramSection returns shard i's q-gram export: its QGrams, or for a
// pending section the export derived here into sc, valid until sc's
// next use. A built shard's section is read off its postings; an
// unbuilt shard's, or a decoded view's, is derived from the keys in
// local-ref order by the routine that builds a shard
// (hashidx.DeriveExport), which yields the same bytes.
func (v *SnapshotView) QGramSection(i int, sc *hashidx.ExportScratch) hashidx.QGramExport {
	se := &v.Shards[i]
	if se.QGrams.Grams != nil {
		return se.QGrams
	}
	if se.gen != nil && se.gen.qgIdx != nil {
		// Compacted: a snapshot boundary is the one representation-change-
		// safe point, so dictionary entries left dangling by eviction are
		// dropped here instead of accreting in every checkpoint forever.
		return se.gen.qgIdx.ExportCompactedInto(sc)
	}
	key := func(lref int) string { return v.Tuples[se.Globals[lref]].Key }
	return hashidx.DeriveExport(qgram.New(v.Cfg.Q), len(se.Globals), key, sc)
}

// FromKeys reports whether the shard's section is pending and will be
// derived from its keys — the costly case, a decomposition of every key
// of the shard — rather than read off a built shard's postings or the
// view's own arrays.
func (se *ShardExport) FromKeys() bool {
	return se.QGrams.Grams == nil && (se.gen == nil || se.gen.qgIdx == nil)
}

// SectionCRC returns the memoised checksum of the shard's encoded
// section, if one was recorded for the generation the section comes
// from. A generation is immutable, so its section — and the checksum —
// never changes: an unchanged shard is fingerprinted once.
func (se *ShardExport) SectionCRC() (uint32, bool) {
	if se.gen == nil {
		return 0, false
	}
	m := se.gen.sectionCRC.Load()
	return uint32(m), m&(1<<32) != 0
}

// RecordSectionCRC memoises crc, the checksum of the shard's encoded
// section, on its generation; a no-op for a section not taken from a
// live index.
func (se *ShardExport) RecordSectionCRC(crc uint32) {
	if se.gen != nil {
		se.gen.sectionCRC.Store(1<<32 | uint64(crc))
	}
}

// Resolve derives every pending shard section into the view's own
// arrays and returns the view, now plain data.
func (v *SnapshotView) Resolve() *SnapshotView {
	for i := range v.Shards {
		v.Shards[i].QGrams = v.QGramSection(i, new(hashidx.ExportScratch))
		v.Shards[i].gen = nil
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
		v.Shards[i] = ShardExport{Globals: globals, gen: sn}
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
// unbuilt; a q-gram section the view carries as data is validated
// (hashidx.CheckSection) and left behind.
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
		if qg := se.QGrams; qg.Grams != nil {
			if err := CheckShardSection(len(se.Globals), qg.Grams, qg.Sizes, qg.SigFloor, len(qg.Sigs), func(ref int) []uint32 { return qg.Sigs[ref] }); err != nil {
				return nil, fmt.Errorf("join: snapshot shard %d: %w", i, err)
			}
		}
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

// CheckShardSection validates a stored q-gram section of a shard with
// the given member count: hashidx.CheckSection's invariants, and one
// size per member. Snapshot decoders call it on the image in place;
// nothing of the section is kept.
func CheckShardSection(members int, grams []string, sizes []uint32, sigFloor, nsigs int, sig func(ref int) []uint32) error {
	if err := hashidx.CheckSection(grams, sizes, sigFloor, nsigs, sig); err != nil {
		return err
	}
	if len(sizes) != members {
		return fmt.Errorf("q-gram index absorbed %d refs, shard lists %d", len(sizes), members)
	}
	return nil
}
