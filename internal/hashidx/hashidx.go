// Package hashidx implements the two hash data structures of Fig. 3 in
// the paper: the exact attribute-value hash table used by SHJoin and the
// q-gram inverted index used by SSHJoin.
//
// Both index one side of a symmetric join. Tuples are identified by
// their dense position ("ref") in the side's tuple store, which the join
// engine owns. Each index remembers how many tuples of its side it has
// absorbed (Indexed); the hybrid engine exploits this for the lazy
// catch-up of §2.3 — only the index needed by the currently active
// operator is kept up to date, and a switch pays only for the tuples
// read since the previous switch.
package hashidx

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"adaptivelink/internal/cow"
	"adaptivelink/internal/qgram"
)

// ExactIndex is a hash table from join-key value to the refs of the
// tuples carrying that value (SHJoin's per-operand state).
type ExactIndex struct {
	buckets cow.Map[[]int]
	indexed int
	entries int  // live entries: indexed minus evicted
	frozen  bool // set by Clone; writer-side, never read by Lookup
}

// checkLive panics when a writer-side operation reaches a generation
// frozen by Clone. Clones share their parent's arrays and write only
// past the lengths the parent sees, which is safe for the parent's
// readers exactly as long as history is linear: a published generation
// is never written again and is cloned once.
func checkLive(frozen bool, op string) {
	if frozen {
		panic("hashidx: " + op + " on an index frozen by Clone: a published generation is immutable and is cloned once; write to the clone")
	}
}

// NewExactIndex returns an empty exact index.
func NewExactIndex() *ExactIndex {
	return &ExactIndex{buckets: cow.NewMap[[]int](0)}
}

// Insert registers the tuple at position ref with the given key. Refs
// must be inserted densely in order; this invariant is what makes lazy
// catch-up a pure suffix operation.
func (x *ExactIndex) Insert(ref int, key string) {
	checkLive(x.frozen, "ExactIndex.Insert")
	if ref != x.indexed {
		panic(fmt.Sprintf("hashidx: ExactIndex.Insert ref %d, want %d (dense order)", ref, x.indexed))
	}
	refs, _ := x.buckets.Get(key)
	x.buckets.Put(key, append(refs, ref))
	x.indexed++
	x.entries++
}

// Lookup returns the refs of all tuples whose key equals key. The
// returned slice is owned by the index; callers must not mutate it.
func (x *ExactIndex) Lookup(key string) []int {
	refs, _ := x.buckets.Get(key)
	return refs
}

// Clone is the copy-on-write step of an RCU snapshot build: it freezes
// x — the published generation; a later Insert, CatchUp, EvictBelow or
// second Clone panics — and returns the next generation, which shares
// x's table and owns only the keys inserted since (see cow.Map).
// Inserts into the clone never disturb readers of x: a bucket append
// lands past the length x sees or in a fresh array.
func (x *ExactIndex) Clone() *ExactIndex {
	checkLive(x.frozen, "ExactIndex.Clone")
	x.frozen = true
	return &ExactIndex{buckets: x.buckets.Clone(), indexed: x.indexed, entries: x.entries}
}

// Indexed returns how many tuples of the side have been absorbed (the
// dense insertion clock; eviction does not rewind it).
func (x *ExactIndex) Indexed() int { return x.indexed }

// Entries returns the number of live entries: insertions minus evicted.
func (x *ExactIndex) Entries() int { return x.entries }

// CatchUp absorbs keys[Indexed():], bringing the index up to date with a
// side whose tuples have the given join keys, and returns the number of
// tuples inserted. This is the switch-time update of §2.3.
func (x *ExactIndex) CatchUp(keys []string) int {
	start := x.indexed
	for ref := start; ref < len(keys); ref++ {
		x.Insert(ref, keys[ref])
	}
	return len(keys) - start
}

// evictPrefix removes every ref below minRef from each bucket of a
// ref-list map. Dense insertion keeps the lists sorted ascending, so
// eviction is a prefix cut per list; emptied lists are deleted and
// surviving tails are copied so the evicted prefixes become garbage
// immediately. Returns the number of entries dropped.
func evictPrefix(buckets map[string][]int, minRef int) int {
	dropped := 0
	for key, refs := range buckets {
		cut := sort.SearchInts(refs, minRef)
		if cut == 0 {
			continue
		}
		dropped += cut
		if cut == len(refs) {
			delete(buckets, key)
			continue
		}
		buckets[key] = append([]int(nil), refs[cut:]...)
	}
	return dropped
}

// EvictBelow physically removes every entry whose ref is below minRef,
// returning the number of entries dropped. Indexed() is unchanged:
// eviction frees memory but does not rewind the dense insertion clock,
// so Insert and CatchUp keep working after evictions.
func (x *ExactIndex) EvictBelow(minRef int) int {
	checkLive(x.frozen, "ExactIndex.EvictBelow")
	dropped := evictPrefix(x.buckets.Own(), minRef)
	x.entries -= dropped
	return dropped
}

// Buckets returns the number of distinct key values indexed.
func (x *ExactIndex) Buckets() int { return x.buckets.Len() }

// AvgBucketLen returns the mean bucket length B_ex used by the cost
// analysis of Table 1 (0 for an empty index).
func (x *ExactIndex) AvgBucketLen() float64 {
	if x.buckets.Len() == 0 {
		return 0
	}
	return float64(x.entries) / float64(x.buckets.Len())
}

// Candidate is a probe result: a stored tuple sharing Overlap distinct
// q-grams with the probe value (the set T(t) with counters c(t′) of
// §2.2).
type Candidate struct {
	Ref     int
	Overlap int
}

// QGramIndex is an inverted index from q-gram to the refs of tuples
// whose join key contains that gram. Posting-list lengths double as the
// gram frequencies that drive the reverse-frequency probe optimisation.
//
// The representation is dictionary-encoded: grams are interned into a
// per-index qgram.Dict of dense uint32 ids, and postings form a
// slice-indexed table keyed by gram id — the one resident copy of the
// (ref, gram) relation. Verification needs only a stored tuple's gram
// count beside the count filter's overlap, so per-ref signatures are
// not kept (Export derives them, as the transpose of the postings).
// Probes run entirely on ids with epoch-stamped counting arrays — no
// per-probe maps and, given a caller-owned ProbeScratch, no per-probe
// allocations.
type QGramIndex struct {
	ex       *qgram.Extractor
	dict     *qgram.Dict
	postings cow.Vec[[]int32] // gram id -> ascending refs
	sizes    []uint32         // ref -> |q(key(ref))|; retained over eviction
	buckets  int              // posting lists currently non-empty
	indexed  int
	entries  int // total postings, for the space accounting of §2.3
	sigFloor int // refs below it have been evicted: no postings, no signature

	// Writer-side state, which probes — running concurrently on frozen
	// generations — never touch. frozen is set by Clone.
	frozen bool
	// insc backs Insert/CatchUp: inserts are single-writer by the index
	// contract (dense ref order).
	insc  qgram.Scratch
	idbuf []uint32
}

// NewQGramIndex returns an empty inverted index using the extractor's
// gram definition.
func NewQGramIndex(ex *qgram.Extractor) *QGramIndex {
	return &QGramIndex{ex: ex, dict: qgram.NewDict()}
}

// Extractor exposes the gram definition shared with callers.
func (x *QGramIndex) Extractor() *qgram.Extractor { return x.ex }

// Dict exposes the index's gram dictionary (read-only for probes).
func (x *QGramIndex) Dict() *qgram.Dict { return x.dict }

// Insert decomposes key into q-grams and registers ref under each
// (operation 2 of §2.2: one pointer insertion per gram). Refs must be
// inserted densely in order.
func (x *QGramIndex) Insert(ref int, key string) {
	x.insc.Reset()
	x.InsertKey(ref, x.ex.Decompose(&x.insc, key))
}

// InsertKey is Insert for a key already decomposed by an extractor
// configured identically to the index's own: grams are interned into
// the index dictionary and only the posting appends remain. This is
// what lets writers decompose outside their critical section —
// decomposition is the expensive part of an insert, the id appends are
// not.
func (x *QGramIndex) InsertKey(ref int, k qgram.Key) {
	x.idbuf = x.dict.Intern(x.idbuf[:0], k)
	x.insertIDs(ref, x.idbuf)
}

func (x *QGramIndex) insertIDs(ref int, ids []uint32) {
	checkLive(x.frozen, "QGramIndex.Insert")
	if ref != x.indexed {
		panic(fmt.Sprintf("hashidx: QGramIndex.Insert ref %d, want %d (dense order)", ref, x.indexed))
	}
	for x.postings.Len() < x.dict.Len() {
		x.postings.Append(nil)
	}
	for _, id := range ids {
		refs := x.postings.Mut(int(id))
		if len(*refs) == 0 {
			x.buckets++
		}
		*refs = append(*refs, int32(ref))
	}
	x.sizes = append(x.sizes, uint32(len(ids)))
	x.entries += len(ids)
	x.indexed++
}

// Clone is the copy-on-write step of an RCU snapshot build. It freezes
// x — the published generation, which must never be written or cloned
// again: Insert, CatchUp, EvictBelow and a second Clone panic — and
// returns the next generation, which copies nothing proportional to the
// index. Posting lists are shared views whose capacity ends at their
// length or in space only this lineage appends to, so an append copies
// the touched list or lands past what x's readers see; the per-ref
// sizes are shared the same way; the dictionary and the postings
// directory are cow containers. History must therefore be linear,
// which the freeze enforces.
func (x *QGramIndex) Clone() *QGramIndex {
	checkLive(x.frozen, "QGramIndex.Clone")
	x.frozen = true
	return &QGramIndex{
		ex:       x.ex,
		dict:     x.dict.Clone(),
		postings: x.postings.Clone(),
		sizes:    x.sizes,
		buckets:  x.buckets,
		indexed:  x.indexed,
		entries:  x.entries,
		sigFloor: x.sigFloor,
		insc:     x.insc, // x never inserts again: the scratch moves on
		idbuf:    x.idbuf,
	}
}

// Indexed returns how many tuples of the side have been absorbed.
func (x *QGramIndex) Indexed() int { return x.indexed }

// QGramExport is a QGramIndex's (ref, gram) relation as data: the gram
// dictionary in id order and the per-ref signatures, the transpose of
// the postings table. It is the section layout snapshot versions 3 and
// 4 stored (CheckSection validates such a section) and the form tests
// compare built indexes by; nothing stores it any more, since an index
// derives its q-gram structures from its keys. Sizes aliases the
// index's immutable data — treat an export as read-only.
type QGramExport struct {
	// Grams enumerates the dictionary in id order (qgram.Dict.Grams).
	Grams []string
	// Sizes is |q(key(ref))| per absorbed ref.
	Sizes []uint32
	// Sigs is the sorted gram-id signature per ref: nil below SigFloor,
	// non-nil (if empty) at or above it.
	Sigs [][]uint32
	// SigFloor is the eviction floor below which signatures are released.
	SigFloor int
}

// Export returns the index's (ref, gram) relation. Sizes aliases the
// index: safe on the immutable RCU snapshots the resident engines hold.
func (x *QGramIndex) Export() QGramExport { return x.export(false) }

// ExportCompacted is Export with dead dictionary entries dropped: grams
// whose posting lists have emptied under eviction (and trailing interned
// grams that never gained a posting) are removed and the surviving ids
// renumbered densely, in ascending old-id order. When nothing is dead it
// equals Export().
func (x *QGramIndex) ExportCompacted() QGramExport { return x.export(true) }

// export derives the signatures as the transpose of the postings table.
// A live ref appears in exactly sizes[ref] lists, so a prefix sum over
// sizes lays the signatures out in one flat array without a counting
// pass; one pass over the lists then fills them. Gram ids are visited
// ascending — and renumbered monotonically when compacting — so every
// signature is ascending by construction.
func (x *QGramIndex) export(compact bool) QGramExport {
	flat := make([]uint32, x.entries)
	sigs := make([][]uint32, x.indexed)
	at := 0
	for ref := x.sigFloor; ref < x.indexed; ref++ {
		end := at + int(x.sizes[ref])
		sigs[ref] = flat[at:at:end] // empty, with room for exactly its grams
		at = end
	}
	grams := x.dict.Grams()
	live := 0
	for id := range grams {
		list := x.list(uint32(id))
		if len(list) == 0 && compact {
			continue
		}
		for _, ref := range list {
			sigs[ref] = append(sigs[ref], uint32(live))
		}
		grams[live] = grams[id]
		live++
	}
	return QGramExport{Grams: grams[:live], Sizes: x.sizes, Sigs: sigs, SigFloor: x.sigFloor}
}

// BuildQGramIndex builds at once the index that n dense Inserts of
// key(0..n-1) would have grown — the same dictionary ids, postings,
// sizes and counters — and is the catch-up of §2.3 for an index that
// was never maintained. It decomposes key(ref) for ref 0..n-1 in order,
// interning every gram into a fresh dictionary (ids in first-seen
// order, exactly as the Inserts assign them), lays each ref's ids out
// sorted, back to back, and transposes these signatures into one flat
// postings array, with no per-list append growth. The signature array
// is sized up front: a key of L runes has at most L+q−1 distinct grams,
// and its byte length bounds L, so the appends below never regrow it
// (growth by a quarter would allocate some five times the array).
func BuildQGramIndex(ex *qgram.Extractor, n int, key func(ref int) string) *QGramIndex {
	x := &QGramIndex{ex: ex, dict: qgram.NewDict(), sizes: make([]uint32, n), indexed: n}
	bound := 0
	for ref := range n {
		if k := key(ref); k != "" {
			bound += len(k) + ex.Q() - 1
		}
	}
	var dec qgram.Scratch
	flat := make([]uint32, 0, bound)
	for ref := range n {
		dec.Reset()
		start := len(flat)
		flat = x.dict.Intern(flat, ex.Decompose(&dec, key(ref)))
		slices.Sort(flat[start:])
		x.sizes[ref] = uint32(len(flat) - start)
	}
	sigs := make([][]uint32, n)
	at := 0
	for ref, size := range x.sizes {
		end := at + int(size)
		sigs[ref] = flat[at:end:end]
		at = end
	}
	x.transpose(sigs)
	return x
}

// CheckSection validates a q-gram section as snapshot versions 3 and 4
// stored it — the dictionary, the per-ref sizes and the n signatures
// sig(0..n-1) — against every invariant an index built from it would
// rely on, and keeps nothing: the dictionary must be duplicate-free,
// the per-ref tables must agree
// on n, and every signature must be nil below sigFloor and, at or above
// it, as long as the ref's size says and strictly ascending within the
// dictionary. sig may return a view into one buffer it reuses, so a
// decoder can check an image's signatures in place.
func CheckSection(grams []string, sizes []uint32, sigFloor, n int, sig func(ref int) []uint32) error {
	if _, err := qgram.DictFromGrams(grams); err != nil {
		return fmt.Errorf("hashidx: import q-gram index: %w", err)
	}
	if len(sizes) != n || len(sizes) > math.MaxInt32 {
		return fmt.Errorf("hashidx: import q-gram index: %d signatures for %d refs (at most %d)", n, len(sizes), math.MaxInt32)
	}
	if sigFloor < 0 || sigFloor > n {
		return fmt.Errorf("hashidx: import q-gram index: signature floor %d outside [0, %d]", sigFloor, n)
	}
	for ref := range n {
		s := sig(ref)
		if ref < sigFloor && s != nil {
			return fmt.Errorf("hashidx: import q-gram index: ref %d below signature floor %d carries a signature", ref, sigFloor)
		}
		if ref >= sigFloor && len(s) != int(sizes[ref]) {
			return fmt.Errorf("hashidx: import q-gram index: ref %d carries a signature of %d grams, its size says %d", ref, len(s), sizes[ref])
		}
	}
	for ref := range n {
		prev := -1
		for _, id := range sig(ref) {
			if int(id) >= len(grams) || int(id) <= prev {
				return fmt.Errorf("hashidx: import q-gram index: ref %d signature names gram id %d after %d: not strictly ascending within dictionary of %d grams", ref, id, prev, len(grams))
			}
			prev = int(id)
		}
	}
	return nil
}

// transpose derives the postings table, and the bucket and entry
// counters, from signatures of sorted ids within the dictionary: one
// counting pass sizes every list, one fill pass writes all lists into a
// single flat array. Refs are visited ascending, so every list is
// ascending by construction. Each list is a view whose capacity ends at
// its length: the first append to it copies that list out of the flat
// array.
func (x *QGramIndex) transpose(sigs [][]uint32) {
	grams := x.dict.Len()
	ends := make([]int, grams+1) // ends[id+1] counts list id, then marks where it ends
	for _, sig := range sigs {
		for _, id := range sig {
			ends[id+1]++
		}
		x.entries += len(sig)
	}
	for id := 1; id <= grams; id++ {
		ends[id] += ends[id-1] // ends[id] is now where list id starts
	}
	flat := make([]int32, x.entries)
	for ref, sig := range sigs {
		for _, id := range sig {
			flat[ends[id]] = int32(ref)
			ends[id]++ // ... and ends up where list id ends, list id+1 starts
		}
	}
	start := 0
	for _, end := range ends[:grams] {
		var list []int32
		if end > start {
			list = flat[start:end:end]
			x.buckets++
		}
		x.postings.Append(list)
		start = end
	}
}

// CatchUp absorbs keys[Indexed():] and returns the number inserted.
func (x *QGramIndex) CatchUp(keys []string) int {
	start := x.indexed
	for ref := start; ref < len(keys); ref++ {
		x.Insert(ref, keys[ref])
	}
	return len(keys) - start
}

// EvictBelow physically removes every posting whose ref is below
// minRef, returning the number of postings dropped. Evicted refs
// thereby lose their signatures (an export carries nil for them); the
// per-ref gram sizes are retained (4 bytes per absorbed tuple), and
// Indexed() is unchanged so Insert and CatchUp keep working after
// evictions. Dictionary entries are never removed: a gram whose posting
// list empties keeps its id (and reports Frequency 0) so outstanding
// probes stay valid — the dict grows with distinct grams ever seen, not
// with stream length.
func (x *QGramIndex) EvictBelow(minRef int) int {
	checkLive(x.frozen, "QGramIndex.EvictBelow")
	dropped := 0
	for id := 0; id < x.postings.Len(); id++ {
		refs := x.postings.At(id)
		cut, _ := slices.BinarySearch(refs, int32(minRef))
		if cut == 0 {
			continue
		}
		dropped += cut
		if cut == len(refs) {
			*x.postings.Mut(id) = nil
			x.buckets--
			continue
		}
		*x.postings.Mut(id) = append([]int32(nil), refs[cut:]...)
	}
	x.sigFloor = max(x.sigFloor, min(minRef, x.indexed))
	x.entries -= dropped
	return dropped
}

// GramSize returns |q(key)| for the stored tuple at ref: beside the
// overlap, all that verification needs of it. Valid for evicted refs.
func (x *QGramIndex) GramSize(ref int) int { return int(x.sizes[ref]) }

// list returns gram id's posting list: nil for qgram.NoID and for grams
// interned but not yet in the postings table.
func (x *QGramIndex) list(id uint32) []int32 {
	if uint(id) >= uint(x.postings.Len()) {
		return nil
	}
	return x.postings.At(int(id))
}

// Frequency returns the number of indexed tuples containing gram g.
func (x *QGramIndex) Frequency(g string) int {
	id, ok := x.dict.IDOf(g)
	if !ok {
		return 0
	}
	return len(x.list(id))
}

// Entries returns the total number of posting entries, i.e. the
// n·(|jA|+q−1) pointer count of the space analysis in §2.3.
func (x *QGramIndex) Entries() int { return x.entries }

// AvgBucketLen returns the mean posting-list length B_ap of Table 1
// over the non-empty lists.
func (x *QGramIndex) AvgBucketLen() float64 {
	if x.buckets == 0 {
		return 0
	}
	return float64(x.entries) / float64(x.buckets)
}

// ProbeScratch holds the reusable per-probe state of the zero-
// allocation probe path: the gram-id buffer, the epoch-stamped
// candidate counting arrays of §2.2 (replacing the per-probe map), and
// the candidate result buffer. One ProbeScratch serves one goroutine at
// a time and may be reused across indexes of any size; candidates
// returned by ProbeKey are views into it, valid until the next probe
// with the same scratch. The zero value is ready to use.
type ProbeScratch struct {
	// Dec backs Decompose for callers probing by string key.
	Dec qgram.Scratch

	ids    []uint32
	counts []int32
	stamps []uint32
	epoch  uint32
	refs   []int32
	cands  []Candidate
}

// Probe computes the candidate set T(t) for a probe key, returning every
// stored tuple that shares at least minOverlap distinct q-grams with it.
// minOverlap is the count threshold k of §2.2, derived by the caller
// from the similarity measure and threshold (simfn.MinOverlap). This
// convenience form allocates its own scratch; hot paths use ProbeKey.
func (x *QGramIndex) Probe(key string, minOverlap int) []Candidate {
	var sc ProbeScratch
	return x.ProbeKey(x.ex.Decompose(&sc.Dec, key), minOverlap, &sc)
}

// ProbeNaive is the unoptimised variant that admits candidates from
// every gram; used by the ablation benchmarks and as a correctness
// oracle for Probe.
func (x *QGramIndex) ProbeNaive(key string, minOverlap int) []Candidate {
	var sc ProbeScratch
	k := x.ex.Decompose(&sc.Dec, key)
	sc.ids = x.dict.AppendIDs(sc.ids[:0], k)
	return x.probeIDs(sc.ids, k.Len(), minOverlap, &sc, false)
}

// ProbeKey is the zero-allocation probe hot path: k must come from an
// extractor configured identically to the index's own, and the returned
// candidates are a view into sc, valid until its next probe.
//
// The implementation follows the paper's optimisation: probe grams are
// considered in reverse frequency order (rarest first); candidates are
// admitted into T(t) only while scanning an initial admission window,
// after which the remaining k−1 grams may only increment existing
// counters. Any tuple sharing ≥ k grams must share at least one gram of
// the admission window, so no qualifying candidate is missed.
func (x *QGramIndex) ProbeKey(k qgram.Key, minOverlap int, sc *ProbeScratch) []Candidate {
	sc.ids = x.dict.AppendIDs(sc.ids[:0], k)
	return x.probeIDs(sc.ids, k.Len(), minOverlap, sc, true)
}

// probeIDs runs the count filter of §2.2 over gram ids. ids may contain
// NoID entries (grams unknown to the dictionary): they short-circuit —
// an unknown gram has no postings, so it is dropped from the scan while
// g, and hence the caller's count threshold, still reflects it.
func (x *QGramIndex) probeIDs(ids []uint32, g, minOverlap int, sc *ProbeScratch, optimised bool) []Candidate {
	if g == 0 || minOverlap < 1 || minOverlap > g {
		// No stored set can share more distinct grams than the probe has.
		return nil
	}
	// Drop grams that cannot contribute: unknown to the dictionary, not
	// yet in the posting table, or with an empty (fully evicted) list.
	// A stored tuple shares grams only through live postings, so the
	// count threshold applies unchanged to the surviving m grams — and
	// if fewer than minOverlap survive, nothing can qualify.
	m := 0
	for _, id := range ids {
		if len(x.list(id)) > 0 {
			ids[m] = id
			m++
		}
	}
	if m < minOverlap {
		return nil
	}
	ids = ids[:m]
	if optimised {
		// Rarest grams first: the admission window then generates the
		// fewest candidates. The tie-break is arbitrary for results
		// (counts of admitted candidates are always complete) but fixed
		// for determinism.
		slices.SortFunc(ids, func(a, b uint32) int {
			fa, fb := len(x.postings.At(int(a))), len(x.postings.At(int(b)))
			if fa != fb {
				return fa - fb
			}
			return int(a) - int(b)
		})
	}
	admitUpTo := m - minOverlap + 1
	if !optimised {
		admitUpTo = m
	}
	// Epoch-stamped counting: counts[ref] is valid iff stamps[ref]
	// carries the current epoch, so the arrays are reused across probes
	// without clearing.
	if len(sc.counts) < x.indexed {
		sc.counts = append(sc.counts, make([]int32, x.indexed-len(sc.counts))...)
		sc.stamps = append(sc.stamps, make([]uint32, x.indexed-len(sc.stamps))...)
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias, start over
		clear(sc.stamps)
		sc.epoch = 1
	}
	epoch := sc.epoch
	sc.refs = sc.refs[:0]
	for i, id := range ids {
		for _, ref := range x.postings.At(int(id)) {
			if sc.stamps[ref] == epoch {
				sc.counts[ref]++
			} else if i < admitUpTo {
				sc.stamps[ref] = epoch
				sc.counts[ref] = 1
				sc.refs = append(sc.refs, ref)
			}
		}
	}
	sc.cands = sc.cands[:0]
	for _, ref := range sc.refs {
		if c := sc.counts[ref]; int(c) >= minOverlap {
			sc.cands = append(sc.cands, Candidate{Ref: int(ref), Overlap: int(c)})
		}
	}
	if len(sc.cands) == 0 {
		return nil
	}
	// Deterministic output order: by ref.
	slices.SortFunc(sc.cands, func(a, b Candidate) int { return a.Ref - b.Ref })
	return sc.cands
}
