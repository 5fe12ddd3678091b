package join

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adaptivelink/internal/cow"
	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
)

// ShardedRefIndex is the scaled-out resident index: N independent
// shards, each publishing an immutable snapshot of its slice of the
// reference through an atomic pointer, probed lock-free.
//
// The reference is hash-partitioned by join key: a tuple lives in
// exactly one shard, shardmap.ShardOf(key, N), so the N shards together
// hold one copy of the reference — the n·(|jA|+q−1) postings of the
// paper's space analysis (§2.3), whatever N is. An exact probe reads
// the key's home shard only. An approximate probe decomposes the key
// once and probes all N shards, which are disjoint 1/N slices: the
// total posting work equals the unsharded index's and, in a batch,
// splits N ways across the host's cores. Per-shard results are merged
// in CompareMatches order, which depends on the matches alone, so the
// match list is identical to a single unsharded index's (the
// differential harness pins this against a sequential oracle for
// interleaved probe/upsert streams).
//
// The q-gram structures are maintained lazily, as §2.3 maintains the
// approximate operator's index: a shard holds only its tuples and its
// exact index until the first approximate probe reaches it. That probe
// builds the shard's dictionary, postings and gram sizes from its keys
// in one pass (hashidx.BuildQGramIndex) and publishes them as the
// shard's next generation; from then on upserts keep them current. An
// index that is only ever probed exactly never decomposes a key.
//
// Concurrency is RCU-style. Probes load a shard's snapshot with one
// atomic pointer read and run on plain immutable data: exact probes
// always, and approximate probes into a built shard, acquire no mutex
// of this package, so probe throughput is bounded by the hardware, not
// by read-lock traffic. (A shard's first approximate probe waits for
// its build, once.) Upsert serialises writers on a mutex that probes
// never touch, builds each touched shard's next snapshot off-path
// (clone + apply, with gram hashing done before even the writer lock),
// and publishes it with one atomic swap — a quiescent point in the RCU
// sense: probes in flight finish on the old snapshot, later probes see
// the new one, and no probe ever observes a half-applied batch within a
// shard.
//
// The consistency model is per-shard snapshot isolation: a probe sees a
// point-in-time state of every shard it reads, upserts are atomic per
// key (a key has one home shard, so its match is taken wholesale from
// one snapshot — never a torn mix of old and new payload), and a
// cross-shard batch is per-shard-consistent rather than globally
// serialised. The price of the swap is structural sharing, not
// copying: a shard's next snapshot shares every array, posting list and
// hash table with the one it supersedes and copies only what the batch
// touches — a 64-slot chunk per replaced tuple or extended posting
// list, a chunk directory, the small overlay of keys and grams added
// since the tables were last folded (see shardSnap.clone) — so an
// upsert costs O(batch) amortised, whatever the size of the reference:
// the occasional growth of an append-only array or fold of an overlay
// is paid back by the appends that filled it.
type ShardedRefIndex struct {
	cfg    Config
	ex     *qgram.Extractor
	nshard int

	// shards hold the one resident entry of every reference tuple, in its
	// home shard: the tuple, its global ref, its key in the exact index
	// (the one key table: writers consult it too) and, once the shard is
	// built, its grams in postings.
	shards []atomic.Pointer[shardSnap]
	// building serialises a shard's q-gram build among the approximate
	// probes that find it unbuilt, so each shard is built once; writers
	// never take it.
	building []sync.Mutex
	// n counts the resident tuples: the next global ref. It is published
	// before the shard snapshots carrying new refs: no probe returns a ref ≥ Len.
	n atomic.Int64

	// mu serialises writers (Upsert) only; it is never taken on the
	// probe path.
	mu sync.Mutex
	// pool recycles per-probe/per-shard scratches (decomposition arena,
	// epoch-stamped count filter, batch result arena) across the probe
	// fleet and the batch fan-out workers: the probe hot path is both
	// lock-free and allocation-free.
	pool sync.Pool

	// maint holds the maintenance/pool telemetry counters; see
	// maintstats.go. Never touched by the exact probe path.
	maint maintCounters
}

// shardScratch is the pooled scratch of one probe, batch worker or
// upsert: decomposition arena and count-filter state.
type shardScratch struct {
	dsc qgram.Scratch
	psc hashidx.ProbeScratch
	// keys holds one decomposed Key per member of a batch or upsert,
	// homes an upsert's home shards.
	keys  []qgram.Key
	homes []int32
	// A batch worker's results over one shard, flat: the matches of key
	// i are flat[off[i]:off[i+1]].
	flat []RefMatch
	off  []int
}

// shardSnap is one shard's immutable snapshot. No field is mutated
// after publication: Upsert and the q-gram build clone and republish
// instead.
type shardSnap struct {
	// tuples is the shard's store (see resident.go): the shard owns its
	// tuples' bytes, and a tuple read from it is a view over them.
	tuples *tupleStore
	// globals maps local refs to global refs (monotonically increasing):
	// the member refs a snapshot records. No probe reads them.
	globals []uint32
	// exIdx is the shard's exact index: key -> its one local ref, the
	// store being keyed.
	exIdx cow.Table
	// qgIdx is nil until the shard's first approximate probe builds it.
	qgIdx *hashidx.QGramIndex
}

func newShardSnap() *shardSnap { return newShardSnapFor(new(tupleStore), 0) }

// newShardSnapFor returns a writer-owned snapshot over st whose exact
// index has room for n keys.
func newShardSnapFor(st *tupleStore, n int) *shardSnap {
	return &shardSnap{tuples: st, exIdx: cow.NewTable(st, n)}
}

// clone returns the writable successor of a published snapshot, copying
// nothing proportional to the shard: the store's entry table (which
// replacements write in place) is chunked copy-on-write and its arenas
// append-only, the append-only globals are shared outright — add writes
// past the length sn's readers see — and the indexes share their tables
// the same way.
// That is sound only for a linear history (sn is never written again
// and is cloned once), which the clones check: they freeze sn's
// containers and indexes and panic on a late write.
func (sn *shardSnap) clone() *shardSnap {
	next := &shardSnap{tuples: sn.tuples.clone(), globals: sn.globals}
	next.exIdx = sn.exIdx.Clone(next.tuples)
	if sn.qgIdx != nil {
		next.qgIdx = sn.qgIdx.Clone()
	}
	return next
}

// add appends a tuple new to the shard, under the next local ref; h is
// its key's hash and k its decomposed key, consulted only when the
// shard is built.
func (sn *shardSnap) add(t *relation.Tuple, h uint64, global int, k qgram.Key) {
	lref := sn.tuples.Len()
	sn.tuples.add(t)
	sn.globals = append(sn.globals, uint32(global))
	sn.exIdx.Add(h)
	if sn.qgIdx != nil {
		sn.qgIdx.InsertKey(lref, k)
	}
}

// key returns the join key at a local ref.
func (sn *shardSnap) key(lref int) string { return sn.tuples.Key(lref) }

// NewShardedRefIndex builds an empty sharded resident index with the
// given shard count under the configuration's gram width, measure and
// threshold (Config.Initial and RetainWindow do not apply to the
// resident mode and are ignored). One shard is a valid degenerate
// layout: it keeps the lock-free snapshot discipline without the batch
// fan-out, and is the deployment of choice on a single hardware thread.
func NewShardedRefIndex(cfg Config, shards int) (*ShardedRefIndex, error) {
	cfg.Initial = LexRex
	cfg.RetainWindow = 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("join: shard count %d, want at least 1", shards)
	}
	s := &ShardedRefIndex{
		cfg:      cfg,
		ex:       qgram.New(cfg.Q),
		nshard:   shards,
		shards:   make([]atomic.Pointer[shardSnap], shards),
		building: make([]sync.Mutex, shards),
	}
	for i := range s.shards {
		s.shards[i].Store(newShardSnap())
	}
	s.pool.New = func() any {
		s.maint.scratchNews.Add(1)
		return new(shardScratch)
	}
	return s, nil
}

// Config returns the index's configuration.
func (s *ShardedRefIndex) Config() Config { return s.cfg }

// Shards returns the shard count.
func (s *ShardedRefIndex) Shards() int { return s.nshard }

// Len returns the number of resident reference tuples (distinct keys).
func (s *ShardedRefIndex) Len() int { return int(s.n.Load()) }

// Entries reports the aggregate live entry counts across shards (exact
// refs, q-gram postings of the built shards). The shards partition the
// reference, so once every shard is built these are one index's
// numbers at any shard count: one exact entry per resident key, one
// posting per distinct gram of each key.
func (s *ShardedRefIndex) Entries() (exact, qgrams int) {
	for i := range s.shards {
		sn := s.shards[i].Load()
		exact += sn.exIdx.Len()
		if sn.qgIdx != nil {
			qgrams += sn.qgIdx.Entries()
		}
	}
	return exact, qgrams
}

// built returns shard sh's snapshot with its q-gram structures: the
// published one if it has them, else the one its first approximate
// probe builds. The build runs under the shard's building lock only, so
// upserts proceed meanwhile; it is then caught up with whatever they
// appended and published under the writer lock — the lazy catch-up of
// §2.3, paid once per shard. Probes that raced into the same unbuilt
// shard wait on the building lock and find the published build.
func (s *ShardedRefIndex) built(sh int) *shardSnap {
	if sn := s.shards[sh].Load(); sn.qgIdx != nil {
		return sn
	}
	s.building[sh].Lock()
	defer s.building[sh].Unlock()
	from := s.shards[sh].Load()
	if from.qgIdx != nil {
		return from
	}
	t0 := time.Now()
	qg := hashidx.BuildQGramIndex(s.ex, from.tuples.Len(), from.key)
	s.mu.Lock()
	cur := s.shards[sh].Load()
	for lref := qg.Indexed(); lref < cur.tuples.Len(); lref++ {
		qg.Insert(lref, cur.key(lref)) // appended by upserts during the build
	}
	next := cur.clone()
	next.qgIdx = qg
	s.shards[sh].Store(next)
	s.mu.Unlock()
	s.maint.qgramBuilds.Add(1)
	s.maint.qgramBuildKeys.Add(uint64(qg.Indexed()))
	s.maint.qgramBuildNanos.Add(time.Since(t0).Nanoseconds())
	return next
}

// Tuple returns a snapshot of the reference tuple at the global ref,
// found by binary search in the shards' ascending global refs.
func (s *ShardedRefIndex) Tuple(ref int) (relation.Tuple, error) {
	for i := range s.shards {
		sn := s.shards[i].Load()
		if lref, ok := slices.BinarySearch(sn.globals, uint32(ref)); ok && ref >= 0 && ref <= math.MaxUint32 {
			return sn.tuples.At(lref), nil
		}
	}
	return relation.Tuple{}, fmt.Errorf("join: ref %d outside resident store of %d tuples", ref, s.Len())
}

// Upsert applies a batch of keyed reference maintenance: existing keys
// get their payload replaced, new keys are appended and indexed, each
// in the key's home shard. It returns the inserted and updated counts
// and a nil error: an in-memory apply cannot fail.
//
// An upsert into an index that holds no tuple and has no built shard is
// a bulk load: the batch is built as Bulk builds rows — every shard's
// inserts on its own core, the count published before the shards —
// into the index one per-tuple pass would leave (a key the batch
// repeats keeps its first ref and its last payload). That is how a
// routed create's rows reach each node, and how a log replay without a
// snapshot starts.
//
// Otherwise writers are serialised; probes are not disturbed. Gram
// decomposition runs before the writer lock, and only for keys homed in
// a built shard (an unbuilt one keeps no grams), the next snapshots of
// the batch's home shards are built off-path as clones that share
// everything the batch does not touch — published snapshots stay
// immutable while the clone interns new grams into its own dictionary
// overlay — and each is published with one atomic swap: in-flight
// probes complete on the old snapshot, later probes see the whole batch
// for that shard.
func (s *ShardedRefIndex) Upsert(tuples []relation.Tuple) (inserted, updated int, err error) {
	return s.UpsertLogged(tuples, nil)
}

// UpsertLogged is Upsert behind a write-ahead log: log, when not nil,
// is called once, and the batch is published only if it succeeds; its
// error is returned with nothing applied. A bulk load calls log beside
// its shard inserts, any other upsert before it applies the batch.
func (s *ShardedRefIndex) UpsertLogged(tuples []relation.Tuple, log func() error) (inserted, updated int, err error) {
	if len(tuples) == 0 {
		return 0, 0, nil
	}
	sc := s.getScratch()
	defer s.pool.Put(sc)
	sc.dsc.Reset()
	// A bulk load decomposes no key. Should the index stop being empty
	// before the lock is taken, the keys are decomposed under it.
	bulk := s.empty()
	ks, homes := sc.keys[:0], slices.Grow(sc.homes[:0], len(tuples))
	if !bulk {
		ks = slices.Grow(ks, len(tuples))
	}
	for _, t := range tuples {
		sh := shardmap.ShardOf(t.Key, s.nshard)
		homes = append(homes, int32(sh))
		if bulk {
			continue
		}
		var k qgram.Key
		if s.shards[sh].Load().qgIdx != nil {
			k = s.ex.Decompose(&sc.dsc, t.Key)
		}
		ks = append(ks, k)
	}
	sc.keys, sc.homes = ks, homes

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.empty() {
		return s.load(tuples, homes, log)
	}
	if len(ks) < len(tuples) {
		ks = append(ks, make([]qgram.Key, len(tuples)-len(ks))...)
		sc.keys = ks
	}
	if log != nil {
		if err := log(); err != nil {
			return 0, 0, err
		}
	}
	s.maint.upserts.Add(1)

	n := s.Len()
	next := make(map[int]*shardSnap)
	for i := range tuples {
		t := &tuples[i]
		sh := int(homes[i])
		ns, ok := next[sh]
		if !ok {
			t0 := time.Now()
			ns = s.shards[sh].Load().clone()
			s.maint.cloneNanos.Add(time.Since(t0).Nanoseconds())
			next[sh] = ns
		}
		// The store is keyed: a resident key maps to its one local ref in
		// its home shard's exact index.
		h := keyHash(t.Key)
		if lref, ok := ns.exIdx.Find(t.Key, h); ok {
			ns.tuples.replace(int(lref), t)
			updated++
			continue
		}
		if ns.qgIdx != nil && ks[i].Len() == 0 {
			ks[i] = s.ex.Decompose(&sc.dsc, t.Key) // built since the batch was hashed
		}
		ns.add(t, h, n+inserted, ks[i])
		inserted++
	}
	for _, ns := range next {
		if ns.tuples.wasteful() {
			ns.tuples.compact()
		}
	}
	// Publish the count before the shard snapshots: no probe may return
	// a global ref at or above Len.
	s.n.Store(int64(n + inserted))
	for sh, ns := range next {
		s.shards[sh].Store(ns)
	}
	s.maint.snapSwaps.Add(uint64(len(next)))
	return inserted, updated, nil
}

// empty reports whether the index holds no tuple and no built shard,
// which makes an upsert a bulk load. Only under the writer lock, which
// a build's publication takes too, does the answer hold until the lock
// is released.
func (s *ShardedRefIndex) empty() bool {
	if s.Len() > 0 {
		return false
	}
	for sh := range s.shards {
		if s.shards[sh].Load().qgIdx != nil {
			return false
		}
	}
	return true
}

// load is an upsert into an empty, unbuilt index, under the writer
// lock: one Bulk build of the batch, homed at homes, published into s.
// log runs beside the shard inserts, once even when a repeated key
// makes the batch build twice, and its error publishes nothing.
func (s *ShardedRefIndex) load(tuples []relation.Tuple, homes []int32, log func() error) (inserted, updated int, err error) {
	b := &Bulk{s: s, rows: Tuples(tuples), homes: homes, totals: make([]shardTotals, s.nshard)}
	for i, sh := range homes {
		b.count(&tuples[i], int(sh))
	}
	var persist func(*SnapshotView) error
	if log != nil {
		logOnce := sync.OnceValue(log)
		persist = func(*SnapshotView) error { return logOnce() }
	}
	if _, err := b.Build(persist); err != nil {
		return 0, 0, err
	}
	return s.Len(), len(tuples) - s.Len(), nil
}

// ProbeExact matches the key against the reference exactly: one atomic
// snapshot load of the key's home shard and one hash lookup.
func (s *ShardedRefIndex) ProbeExact(key string) []RefMatch {
	return s.AppendProbeExact(nil, key)
}

// AppendProbeExact is ProbeExact appending into caller-owned dst: with
// a reusable buffer the exact probe hot path performs zero allocations
// and zero atomic writes — one snapshot load, one hash lookup.
func (s *ShardedRefIndex) AppendProbeExact(dst []RefMatch, key string) []RefMatch {
	return snapExactAppend(dst, s.shards[shardmap.ShardOf(key, s.nshard)].Load(), key)
}

// snapExactAppend runs the SHJoin probe against one immutable shard
// snapshot: one lookup, at most one match.
func snapExactAppend(dst []RefMatch, sn *shardSnap, key string) []RefMatch {
	if lref, ok := sn.exIdx.Get(key); ok {
		dst = append(dst, RefMatch{Ref: sn.tuples.At(int(lref)), Similarity: 1, Exact: true})
	}
	return dst
}

// ProbeApprox matches the key against the reference approximately,
// probing every shard: the shards are disjoint slices of the reference,
// so the union of their SSHJoin probes, in CompareMatches order, is the
// single-shard probe's result.
func (s *ShardedRefIndex) ProbeApprox(key string) []RefMatch {
	return s.AppendProbeApprox(nil, key)
}

// AppendProbeApprox is ProbeApprox appending into caller-owned dst.
// The key is decomposed once into a scratch-backed Key; the per-shard
// count filter and verification all run on pooled scratch over the
// dictionary-encoded snapshots, so with a reusable dst the approximate
// probe allocates nothing.
func (s *ShardedRefIndex) AppendProbeApprox(dst []RefMatch, key string) []RefMatch {
	sc := s.getScratch()
	sc.dsc.Reset()
	k := s.ex.Decompose(&sc.dsc, key)
	g := k.Len()
	ko := s.cfg.Measure.MinOverlap(g, s.cfg.Theta)
	base := len(dst)
	for sh := range s.shards {
		dst = snapApproxAppend(dst, s.built(sh), s.cfg, key, k, g, ko, &sc.psc)
	}
	s.pool.Put(sc)
	slices.SortFunc(dst[base:], CompareMatches)
	return dst
}

// snapApproxAppend runs the SSHJoin probe against one immutable shard
// snapshot, appending verified matches in ascending local ref order. The
// candidate view returned by ProbeKey lives in psc and is fully
// consumed before this function returns, so one scratch may serve
// several shards in sequence.
func snapApproxAppend(dst []RefMatch, sn *shardSnap, cfg Config, key string, k qgram.Key, g, ko int, psc *hashidx.ProbeScratch) []RefMatch {
	for _, cand := range sn.qgIdx.ProbeKey(k, ko, psc) {
		sim, ok := cfg.Measure.Verify(g, sn.qgIdx.GramSize(cand.Ref), cand.Overlap, cfg.Theta)
		exact := sn.key(cand.Ref) == key
		if exact {
			sim = 1
		} else if !ok {
			continue
		}
		dst = append(dst, RefMatch{Ref: sn.tuples.At(cand.Ref), Similarity: sim, Exact: exact})
	}
	return dst
}

// Probe matches under the given mode.
func (s *ShardedRefIndex) Probe(mode Mode, key string) []RefMatch {
	if mode == Approx {
		return s.ProbeApprox(key)
	}
	return s.ProbeExact(key)
}

// batchFanMin is the batch size from which ProbeBatch fans the shards
// out to goroutines (given more than one busy shard and more than one
// hardware thread); below it the coordination would cost more than the
// parallelism returns.
const batchFanMin = 16

// ProbeBatch matches every key under the given mode, returning one
// result slice per key in order — semantically a loop of Probe calls,
// physically an amortised per-shard execution: keys are hashed (exact)
// or decomposed (approximate) once, each shard's snapshot is loaded
// once per batch, and on multi-core hosts the shards run concurrently
// inside the caller's worker slot.
func (s *ShardedRefIndex) ProbeBatch(mode Mode, keys []string) [][]RefMatch {
	out := make([][]RefMatch, len(keys))
	if len(keys) == 0 {
		return out
	}
	if mode == Approx {
		s.probeBatchApprox(keys, out)
	} else {
		s.probeBatchExact(keys, out)
	}
	return out
}

func (s *ShardedRefIndex) probeBatchExact(keys []string, out [][]RefMatch) {
	groups := make([][]int, s.nshard)
	for i, k := range keys {
		sh := shardmap.ShardOf(k, s.nshard)
		groups[sh] = append(groups[sh], i)
	}
	busy := func(sh int) bool { return len(groups[sh]) > 0 }
	s.forShards(len(keys), busy, func(sh int) {
		sn := s.shards[sh].Load() // one snapshot load per shard-group
		for _, i := range groups[sh] {
			out[i] = snapExactAppend(nil, sn, keys[i])
		}
	})
}

func (s *ShardedRefIndex) probeBatchApprox(keys []string, out [][]RefMatch) {
	// Decompose every key once; the Key arena lives in pooled scratch
	// held for the whole batch (Keys are immutable and shared read-only
	// by the fan-out workers below).
	sc := s.getScratch()
	sc.dsc.Reset()
	ks := sc.keys[:0]
	for _, key := range keys {
		ks = append(ks, s.ex.Decompose(&sc.dsc, key))
	}
	sc.keys = ks
	// Phase 1: every shard probes its snapshot once per key. Each worker
	// draws its own scratch from the pool and fills that scratch's flat
	// result arena, so workers share nothing they write.
	work := make([]*shardScratch, s.nshard)
	every := func(int) bool { return true }
	s.forShards(len(keys), every, func(sh int) {
		wsc := s.getScratch()
		sn := s.built(sh) // one snapshot load per shard
		flat, off := wsc.flat[:0], wsc.off[:0]
		for i, key := range keys {
			off = append(off, len(flat))
			g := ks[i].Len()
			ko := s.cfg.Measure.MinOverlap(g, s.cfg.Theta)
			flat = snapApproxAppend(flat, sn, s.cfg, key, ks[i], g, ko, &wsc.psc)
		}
		wsc.flat, wsc.off = flat, append(off, len(flat))
		work[sh] = wsc
	})
	// Phase 2: merge per key — one exactly sized result per matched key.
	for i := range keys {
		total := 0
		for _, wsc := range work {
			total += wsc.off[i+1] - wsc.off[i]
		}
		if total == 0 {
			continue
		}
		merged := make([]RefMatch, 0, total)
		for _, wsc := range work {
			merged = append(merged, wsc.flat[wsc.off[i]:wsc.off[i+1]]...)
		}
		slices.SortFunc(merged, CompareMatches)
		out[i] = merged
	}
	for _, wsc := range work {
		clear(wsc.flat) // drop the tuple references before pooling
		s.pool.Put(wsc)
	}
	s.pool.Put(sc)
}

// forShards runs fn over every busy shard — concurrently when the
// batch is big enough, more than one shard is busy and the host has
// more than one hardware thread; sequentially otherwise. fn must write
// only state owned by its shard.
func (s *ShardedRefIndex) forShards(n int, busy func(sh int) bool, fn func(sh int)) {
	active := 0
	for sh := range s.shards {
		if busy(sh) {
			active++
		}
	}
	if active > 1 && n >= batchFanMin && runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		for sh := range s.shards {
			if !busy(sh) {
				continue
			}
			wg.Add(1)
			go func(sh int) {
				defer wg.Done()
				fn(sh)
			}(sh)
		}
		wg.Wait()
		return
	}
	for sh := range s.shards {
		if busy(sh) {
			fn(sh)
		}
	}
}
