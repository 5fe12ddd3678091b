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
// the upsert path's snapshot publication and runs the inserts, shard by
// shard, in parallel across the host's cores. This is the load path for
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

// Rows is the tuple store a bulk build copies into its shards, read by
// ref. A create's rows are a []relation.Tuple (Tuples); a snapshot
// load's are the image's columns, read where they lie, so a load copies
// each tuple's bytes once: from the image into its home shard.
type Rows interface {
	// Len is the number of rows.
	Len() int
	// Row returns the row at ref, which need stay valid only until the
	// build has copied it: its attributes may be decoded into *buf,
	// which Row may grow and the next call with the same buf reuses.
	Row(ref int, buf *[]string) relation.Tuple
}

// Tuples is a slice of tuples as a bulk build's rows.
type Tuples []relation.Tuple

func (ts Tuples) Len() int                                { return len(ts) }
func (ts Tuples) Row(ref int, _ *[]string) relation.Tuple { return ts[ref] }

// Bulk is a bulk build in progress over rows it adopts as its tuple
// store, in ref order: Home assigns rows to their home shards as they
// become final, so a load can home each row while later ones are still
// being read, and Build then builds every shard from them.
type Bulk struct {
	s      *ShardedRefIndex // the index Build publishes
	rows   Rows             // Tuples for a create (Build), any Rows for a load
	homes  []int32          // the home shard of rows[:len(homes)]
	counts []int            // rows homed per shard
	buf    []string         // Home's scratch for rows.Row
}

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
	return &Bulk{s: s, rows: rows, homes: make([]int32, 0, rows.Len()), counts: make([]int, s.nshard)}
}

// Home homes the rows up to hi at shardmap.ShardOf of their keys,
// which must be final.
func (b *Bulk) Home(hi int) {
	for ref := len(b.homes); ref < hi; ref++ {
		sh := shardmap.ShardOf(b.rows.Row(ref, &b.buf).Key, b.s.nshard)
		b.homes = append(b.homes, int32(sh))
		b.counts[sh]++
	}
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
// the exact tables fill. A failed persist fails the build. When the
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
// rows, then builds each shard's tuple store and exact index with dense
// in-order inserts, in parallel across shards, while persist (if any)
// runs on the calling goroutine. Walking refs ascending keeps every
// shard's member list ascending — the insert order the upsert path
// produces, so a shard's dictionary, once built, interns grams
// identically. No key is decomposed: every shard is published unbuilt,
// its q-gram structures left to its first approximate probe. A key met
// twice in a shard is a *duplicateKeyError.
func (b *Bulk) build(persist func(*SnapshotView) error) (*ShardedRefIndex, error) {
	s, rows, n := b.s, b.rows, b.rows.Len()
	b.Home(n)
	snaps := make([]*shardSnap, s.nshard)
	members := make([][]uint32, s.nshard)
	for sh := range members {
		if n > 0 { // presized; an empty index's member refs stay nil
			members[sh] = make([]uint32, 0, b.counts[sh])
		}
	}
	for g, sh := range b.homes {
		members[sh] = append(members[sh], uint32(g))
	}

	errs := make([]error, s.nshard)
	var wg sync.WaitGroup
	for sh, globals := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snaps[sh], errs[sh] = buildShard(rows, globals)
		}()
	}
	var perr error
	if persist != nil {
		// Only a create persists, so the rows are Tuples. The inserts
		// only read them and the member refs.
		perr = persist(&SnapshotView{Cfg: s.cfg, NShard: s.nshard, Shards: members, n: n, store: slices.Values(rows.(Tuples))})
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

// buildShard builds one shard from its members, the refs of the rows
// homed there, ascending: their bytes are copied into a store
// sized to them, and their keys into an exact index sized to them. A key
// met twice is a *duplicateKeyError.
func buildShard(rows Rows, globals []uint32) (*shardSnap, error) {
	var buf []string
	nbytes, nstrs := 0, 0
	for _, g := range globals {
		t := rows.Row(int(g), &buf)
		b, s := storeSize(&t)
		nbytes, nstrs = nbytes+b, nstrs+s
	}
	sn := newShardSnapFor(newTupleStore(nbytes, nstrs), len(globals))
	sn.globals = globals
	for _, g := range globals {
		t := rows.Row(int(g), &buf)
		h := keyHash(t.Key)
		if first, ok := sn.exIdx.Find(t.Key, h); ok {
			// The rows may be an image the caller reuses: the error keeps
			// a copy of the key.
			return nil, &duplicateKeyError{key: strings.Clone(t.Key), first: globals[first], second: g}
		}
		sn.tuples.add(&t)
		sn.exIdx.Add(h)
	}
	return sn, nil
}
