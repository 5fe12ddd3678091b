package join

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
)

// BuildShardedRefIndex bulk-loads a resident index from a batch: one
// Bulk over it, homed whole and built. The result is identical to
// NewShardedRefIndex followed by one Upsert of the whole batch (same
// refs, same stores, and once built the same dictionaries and postings
// — pinned by the bulk differential test), but the construction skips
// the upsert path's snapshot publication, copies each tuple once into
// a store sized to its shard, and fills the shards' exact tables in
// parallel across the host's cores. This is the load path for
// multi-million-row reference tables.
//
// The keyed-store contract applies as everywhere: one resident record
// per join key, newest payload wins, refs assigned in first-seen key
// order. The batch is built as it stands, with no dedup pass and no
// copy; only when a shard's exact table meets a key twice is the batch
// deduplicated and built again. The batch is read, never written, and
// the index does not alias it.
func BuildShardedRefIndex(cfg Config, shards int, tuples []relation.Tuple) (*ShardedRefIndex, error) {
	b, err := NewBulk(cfg, shards, tuples)
	if err != nil {
		return nil, err
	}
	b.Home(len(tuples))
	return b.Build(nil)
}

// Rows is the tuple store a bulk build copies into its shards, read in
// ref order: a build walks it twice, once to home each row and count
// what it costs its shard's arenas, once to copy each row into them, so
// no row is ever read out of order and no per-row table is needed. A
// create's rows are a []relation.Tuple (Tuples); a snapshot load's are
// the image's columns, read where they lie by forward cursors, so a
// load copies each tuple's bytes once: from the image into its home
// shard.
type Rows interface {
	// Len is the number of rows.
	Len() int
	// Cursor returns a function that returns the rows in ref order, one
	// a call, from the first: Len calls in all. A row need stay valid
	// only until the next call; the build copies it before then.
	Cursor() func() relation.Tuple
}

// Tuples is a slice of tuples as a bulk build's rows.
type Tuples []relation.Tuple

func (ts Tuples) Len() int { return len(ts) }

func (ts Tuples) Cursor() func() relation.Tuple {
	i := -1
	return func() relation.Tuple { i++; return ts[i] }
}

// Bulk is a bulk build in progress over rows it adopts as its tuple
// store, in ref order: Home assigns rows to their home shards as they
// become final, so a load can home each row while later ones are still
// being read, and Build then builds every shard from them.
type Bulk struct {
	s      *ShardedRefIndex      // the index Build publishes
	rows   Rows                  // Tuples for a create (Build), any Rows for a load
	next   func() relation.Tuple // Home's cursor, at rows[len(homes)]
	homes  []int32               // the home shard of rows[:len(homes)]
	totals []shardTotals         // what the rows homed so far cost each shard
}

// shardTotals is what the rows homed in a shard cost it: their count,
// and the bytes and attribute headers its arenas need for them.
type shardTotals struct{ rows, bytes, strs int }

// NewBulk starts a bulk build of rows under the configuration and shard
// count, refusing a configuration NewShardedRefIndex refuses.
func NewBulk(cfg Config, shards int, rows []relation.Tuple) (*Bulk, error) {
	s, err := NewShardedRefIndex(cfg, shards)
	if err != nil {
		return nil, err
	}
	return s.bulk(Tuples(rows)), nil
}

// bulk starts a bulk build of rows that publishes into s, which must
// hold no tuple and no built shard.
func (s *ShardedRefIndex) bulk(rows Rows) *Bulk {
	return &Bulk{s: s, rows: rows, next: rows.Cursor(), homes: make([]int32, 0, rows.Len()), totals: make([]shardTotals, s.nshard)}
}

// Home homes the rows up to hi at shardmap.ShardOf of their keys,
// which must be final.
func (b *Bulk) Home(hi int) {
	for ref := len(b.homes); ref < hi; ref++ {
		t := b.next()
		sh := shardmap.ShardOf(t.Key, b.s.nshard)
		b.homes = append(b.homes, int32(sh))
		b.count(&t, sh)
	}
}

// count adds t to what its home shard sh is to hold.
func (b *Bulk) count(t *relation.Tuple, sh int) {
	nbytes, nstrs := storeSize(t)
	tot := &b.totals[sh]
	tot.rows, tot.bytes, tot.strs = tot.rows+1, tot.bytes+nbytes, tot.strs+nstrs
}

// Build builds the index from every row, homing those Home has not, and
// publishes it with bulk-load semantics: a key the rows repeat keeps
// its first ref and its last payload, as one Upsert of the rows would
// leave it. That dedup runs only when a key does repeat, and then costs
// a second build: the first one's inserts and persist are thrown away.
//
// persist, when not nil, is handed the build's snapshot view — the rows
// themselves as the store, and each shard's member refs — and runs
// beside the shard inserts, so a durable load writes its snapshot while
// the shards fill. A failed persist fails the build. When the
// rows turn out to repeat a key, persist is called again, with the view
// of the deduplicated store, and must replace what it wrote the first
// time.
func (b *Bulk) Build(persist func(*SnapshotView) error) (*ShardedRefIndex, error) {
	s, err := b.build(persist)
	var dup *duplicateKeyError
	if errors.As(err, &dup) {
		s, err = b.s.bulk(dedup(b.rows.(Tuples))).build(persist)
	}
	if err != nil {
		return nil, err
	}
	if s.Len() > 0 {
		s.maint.upserts.Add(1)
		s.maint.snapSwaps.Add(uint64(s.nshard))
	}
	return s, nil
}

// dedup returns the keyed store one Upsert of rows leaves: refs in
// first-seen key order, payloads the last occurrence's.
func dedup(rows Tuples) Tuples {
	final := make(Tuples, 0, len(rows))
	seen := make(map[string]int, len(rows))
	for _, t := range rows {
		if g, ok := seen[t.Key]; ok {
			final[g] = t
			continue
		}
		seen[t.Key] = len(final)
		final = append(final, t)
	}
	return final
}

// build is the one construction routine of a resident index, behind
// bulk loads and snapshot loads of every version alike: a load is a
// bulk build of the stored tuple store. It homes what is left of the
// rows, sizing each shard's arenas to the rows homed there, then copies
// every row into its home shard's store in one ascending pass, and
// fills each shard's exact index from its own store, in parallel across
// shards, while persist (if any) runs beside both. Walking refs
// ascending keeps every shard's member list ascending — the insert
// order the upsert path produces, so a shard's dictionary, once built,
// interns grams identically. No key is decomposed: every shard is
// published unbuilt, its q-gram structures left to its first
// approximate probe. A key met twice in a shard is a
// *duplicateKeyError.
func (b *Bulk) build(persist func(*SnapshotView) error) (*ShardedRefIndex, error) {
	s, n := b.s, b.rows.Len()
	b.Home(n)
	members := make([][]uint32, s.nshard)
	stores := make([]*tupleStore, s.nshard)
	for sh, tot := range b.totals {
		if n > 0 { // presized; an empty index's member refs stay nil
			members[sh] = make([]uint32, 0, tot.rows)
		}
		stores[sh] = newTupleStore(tot.bytes, tot.strs)
	}
	for g, sh := range b.homes {
		members[sh] = append(members[sh], uint32(g))
	}

	var wg sync.WaitGroup
	var perr error
	if persist != nil {
		// Only a create persists, so the rows are Tuples. The copy and
		// the inserts only read them and the member refs.
		view := &SnapshotView{Cfg: s.cfg, NShard: s.nshard, Shards: members, n: n, store: slices.Values(b.rows.(Tuples))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			perr = persist(view)
		}()
	}
	next := b.rows.Cursor()
	for _, sh := range b.homes {
		t := next()
		stores[sh].add(&t)
	}
	snaps := make([]*shardSnap, s.nshard)
	errs := make([]error, s.nshard)
	for sh, st := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snaps[sh], errs[sh] = indexShard(st, members[sh])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if perr != nil {
		return nil, perr
	}

	// Publish: the count first (no probe may return a ref at or above
	// Len), then every shard.
	s.n.Store(int64(n))
	for sh, sn := range snaps {
		s.shards[sh].Store(sn)
	}
	return s, nil
}

// duplicateKeyError names a key a store holds twice, by the global refs
// of its first two occurrences.
type duplicateKeyError struct {
	key           string
	first, second uint32
}

func (e *duplicateKeyError) Error() string {
	return fmt.Sprintf("join: store has key %q at both ref %d and %d (the store is keyed)", e.key, e.first, e.second)
}

// indexShard makes a shard of a store the build has filled and the
// ascending global refs of its tuples: its exact index is filled from
// the store's own keys, in local ref order. A key met twice is a
// *duplicateKeyError.
func indexShard(st *tupleStore, globals []uint32) (*shardSnap, error) {
	sn := newShardSnapFor(st, len(globals))
	sn.globals = globals
	for lref := range st.Len() {
		key := st.Key(lref)
		h := keyHash(key)
		if first, ok := sn.exIdx.Find(key, h); ok {
			// The error keeps a copy of the key, not the failed build's
			// arena.
			return nil, &duplicateKeyError{key: strings.Clone(key), first: globals[first], second: globals[lref]}
		}
		sn.exIdx.Add(h)
	}
	return sn, nil
}
