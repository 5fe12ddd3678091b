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
//
// The q-gram index holds the n·(|jA|+q−1) postings of §2.3's space
// analysis, the largest structure a resident reference keeps, so its
// lists are compressed: each is a run of immutable, delta-coded blocks
// of blockRefs refs followed by an uncompressed tail of the newest
// fewer-than-blockRefs refs (see postingList). The streaming engine
// and the resident index share this one representation.
package hashidx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"adaptivelink/internal/cow"
	"adaptivelink/internal/qgram"
)

// ExactIndex is a hash table from join-key value to the refs of the
// tuples carrying that value (SHJoin's per-operand state): a plain
// multiset map, owned by one streaming engine and never shared. (The
// resident index is keyed — one ref per key — and keeps its own
// copy-on-write table of single refs.)
type ExactIndex struct {
	buckets map[string][]int
	indexed int
	entries int // live entries: indexed minus evicted
}

// checkLive panics when a writer-side operation reaches a q-gram index
// generation frozen by Clone. Clones share their parent's arrays and
// write only past the lengths the parent sees, which is safe for the
// parent's readers exactly as long as history is linear: a published
// generation is never written again and is cloned once.
func checkLive(frozen bool, op string) {
	if frozen {
		panic("hashidx: " + op + " on an index frozen by Clone: a published generation is immutable and is cloned once; write to the clone")
	}
}

// NewExactIndex returns an empty exact index.
func NewExactIndex() *ExactIndex {
	return &ExactIndex{buckets: make(map[string][]int)}
}

// Insert registers the tuple at position ref with the given key. Refs
// must be inserted densely in order; this invariant is what makes lazy
// catch-up a pure suffix operation.
func (x *ExactIndex) Insert(ref int, key string) {
	if ref != x.indexed {
		panic(fmt.Sprintf("hashidx: ExactIndex.Insert ref %d, want %d (dense order)", ref, x.indexed))
	}
	x.buckets[key] = append(x.buckets[key], ref)
	x.indexed++
	x.entries++
}

// Lookup returns the refs of all tuples whose key equals key. The
// returned slice is owned by the index; callers must not mutate it.
func (x *ExactIndex) Lookup(key string) []int { return x.buckets[key] }

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
	dropped := evictPrefix(x.buckets, minRef)
	x.entries -= dropped
	return dropped
}

// Buckets returns the number of distinct key values indexed.
func (x *ExactIndex) Buckets() int { return len(x.buckets) }

// AvgBucketLen returns the mean bucket length B_ex used by the cost
// analysis of Table 1 (0 for an empty index).
func (x *ExactIndex) AvgBucketLen() float64 {
	if len(x.buckets) == 0 {
		return 0
	}
	return float64(x.entries) / float64(len(x.buckets))
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
//
// Each posting list is block-compressed (postingList): its refs sit in
// full blocks of blockRefs refs, delta-coded as fixed-width gaps, and an
// uncompressed tail of the newest ones. A block, once written, is never
// written again, so generations share it; the tail is what an insert
// appends to, copy-on-append as any shared slice. A full tail is
// encoded into a new block, which keeps an insert O(grams of the key)
// with no whole-list re-encoding. The probe decodes blocks gap by gap
// inside the count filter, allocating nothing, and each list's length
// is a stored field, so the rarest-first sort reads it in O(1).
type QGramIndex struct {
	ex       *qgram.Extractor
	dict     *qgram.Dict
	postings cow.Vec[*postingList] // gram id -> ascending refs; nil when empty
	sizes    []uint32              // ref -> |q(key(ref))|; retained over eviction
	buckets  int                   // posting lists currently non-empty
	indexed  int
	entries  int // total postings, for the space accounting of §2.3
	encBytes int // encoded block bytes over all lists
	tailRefs int // refs in the uncompressed tails
	sigFloor int // refs below it have been evicted: no postings, no signature

	// Writer-side state, which probes — running concurrently on frozen
	// generations — never touch. frozen is set by Clone; gen counts the
	// Clones behind this generation (see mutList).
	frozen bool
	gen    uint64
	// insc backs Insert/CatchUp: inserts are single-writer by the index
	// contract (dense ref order).
	insc  qgram.Scratch
	idbuf []uint32
}

// blockRefs is the ref count of a full posting block. Thirty-two keeps
// the uncompressed tails — up to blockRefs−1 refs at 4 bytes in every
// list — small beside the blocks at the list lengths of indexes of a
// few thousand to a few hundred thousand keys, while a block's 5-byte
// header costs under a fifth of a byte per posting and the probe pays
// its per-block setup once per 32 postings. It must stay below 64: the
// header holds the count in its low six bits.
const blockRefs = 32

// blockHeader is a block's header length: the count-and-width byte and
// the first ref.
const blockHeader = 5

// postingList is one gram's ascending refs. blocks holds the full
// blocks back to back, oldest first. A block is frame-of-reference
// coded: a header byte (the ref count, and in the top two bits the gap
// width w−1), the first ref in 4 bytes, then the gap to each next ref
// in w bytes, all little-endian, w being the fewest bytes the block's
// widest gap needs. Byte-aligned gaps decode without a branch per ref,
// and in a list denser than one ref in 256 every gap is one byte.
//
// Blocks are immutable: a clone shares them, appends new ones past the
// length its parent's readers see, and eviction writes a fresh array.
// All blocks hold blockRefs refs except that eviction may leave a
// shorter first one. tail holds the newest fewer than blockRefs refs,
// uncompressed, so an insert is one append and no block is ever
// re-encoded to grow. n counts the refs in both. gen is the generation
// of the index that may write this list in place.
type postingList struct {
	blocks []byte
	tail   []int32
	n      int
	gen    uint64
}

// gapWidth returns the bytes per gap of a block of refs.
func gapWidth(refs []int32) int {
	var widest int32
	for i := 1; i < len(refs); i++ {
		widest = max(widest, refs[i]-refs[i-1])
	}
	return max(1, (bits.Len32(uint32(widest))+7)/8)
}

// blockLen returns the encoded length of a block of refs.
func blockLen(refs []int32) int { return blockHeader + (len(refs)-1)*gapWidth(refs) }

// appendBlock encodes refs (ascending, 1 to blockRefs of them) as one
// block onto dst.
func appendBlock(dst []byte, refs []int32) []byte {
	w := gapWidth(refs)
	dst = append(dst, byte(len(refs))|byte(w-1)<<6)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(refs[0]))
	for i := 1; i < len(refs); i++ {
		gap := uint32(refs[i] - refs[i-1])
		for range w {
			dst = append(dst, byte(gap))
			gap >>= 8
		}
	}
	return dst
}

// nextBlock splits the block at the head of enc: its first ref, its
// gaps and gap width, and the rest of enc.
func nextBlock(enc []byte) (first uint32, gaps []byte, w int, rest []byte) {
	c, w := int(enc[0]&63), int(enc[0]>>6)+1
	first = binary.LittleEndian.Uint32(enc[1:blockHeader])
	end := blockHeader + (c-1)*w
	return first, enc[blockHeader:end], w, enc[end:]
}

// gapAt decodes one gap of a block whose gaps are len(b) bytes wide.
func gapAt(b []byte) uint32 {
	var gap uint32
	for i := len(b) - 1; i >= 0; i-- {
		gap = gap<<8 | uint32(b[i])
	}
	return gap
}

// decodeBlock decodes the block at the head of enc into buf and returns
// its refs (a view of buf) and the rest of enc.
func decodeBlock(enc []byte, buf *[blockRefs]int32) ([]int32, []byte) {
	ref, gaps, w, rest := nextBlock(enc)
	buf[0] = int32(ref)
	refs := buf[:1+len(gaps)/w]
	for i := 1; i < len(refs); i++ {
		ref += gapAt(gaps[(i-1)*w : i*w])
		refs[i] = int32(ref)
	}
	return refs, rest
}

// first returns the list's smallest ref; the list must not be empty.
func (l *postingList) first() int32 {
	if len(l.blocks) > 0 {
		first, _, _, _ := nextBlock(l.blocks)
		return int32(first)
	}
	return l.tail[0]
}

// appendTo appends the list's refs, decoded, to dst.
func (l *postingList) appendTo(dst []int32) []int32 {
	var buf [blockRefs]int32
	for enc := l.blocks; len(enc) > 0; {
		var refs []int32
		refs, enc = decodeBlock(enc, &buf)
		dst = append(dst, refs...)
	}
	return append(dst, l.tail...)
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

// insertIDs appends ref to the tail of each id's list, and encodes a
// tail that fills into a new block. The tail array of a clone may be
// its parent's, so a flushed tail is dropped, never truncated for reuse.
func (x *QGramIndex) insertIDs(ref int, ids []uint32) {
	checkLive(x.frozen, "QGramIndex.Insert")
	if ref != x.indexed {
		panic(fmt.Sprintf("hashidx: QGramIndex.Insert ref %d, want %d (dense order)", ref, x.indexed))
	}
	for x.postings.Len() < x.dict.Len() {
		x.postings.Append(nil)
	}
	for _, id := range ids {
		l := x.mutList(int(id))
		if l.n == 0 {
			x.buckets++
		}
		l.n++
		if l.tail = append(l.tail, int32(ref)); len(l.tail) == blockRefs {
			was := len(l.blocks)
			l.blocks = appendBlock(l.blocks, l.tail)
			l.tail = nil
			x.encBytes += len(l.blocks) - was
			x.tailRefs -= blockRefs
		}
	}
	x.sizes = append(x.sizes, uint32(len(ids)))
	x.entries += len(ids)
	x.tailRefs += len(ids)
	x.indexed++
}

// mutList returns gram id's list for writing, copying its header first
// unless this generation owns it, and creating it when it is empty. The
// directory holds a pointer per gram, so a generation copies a chunk of
// pointers and the few list headers it writes, not a chunk of headers.
// Lists reachable from x were made by x or an ancestor, and ancestors
// carry smaller generations: a matching stamp means no other generation
// can see the list.
func (x *QGramIndex) mutList(id int) *postingList {
	slot := x.postings.Mut(id)
	if l := *slot; l == nil || l.gen != x.gen {
		own := new(postingList)
		if l != nil {
			*own = *l
		}
		own.gen = x.gen
		*slot = own
	}
	return *slot
}

// Clone is the copy-on-write step of an RCU snapshot build. It freezes
// x — the published generation, which must never be written or cloned
// again: Insert, CatchUp, EvictBelow and a second Clone panic — and
// returns the next generation, which copies nothing proportional to the
// index. The postings directory is a cow container of list headers,
// and a header is copied by the first generation to write it
// (mutList). Blocks are immutable and shared; block arrays and tails
// are shared views whose capacity ends at their length or in space
// only this lineage appends to, so an append copies the touched array
// or lands past what x's readers see; the per-ref sizes are shared the
// same way; the dictionary is a cow container. History must therefore
// be linear, which the freeze enforces.
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
		encBytes: x.encBytes,
		tailRefs: x.tailRefs,
		sigFloor: x.sigFloor,
		gen:      x.gen + 1,
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
	var list []int32
	for id := range grams {
		list = x.appendList(list[:0], uint32(id))
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
// back to back, and transposes these signatures straight into encoded
// posting lists, each allocated at its final size. The signature array
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

// transpose derives the postings table, and the counters, from
// signatures of distinct ids within the dictionary. Refs are visited
// ascending, so every list comes out ascending. A list of m refs keeps
// its first m − m mod blockRefs in blocks and the rest in its tail, so
// one pass counts the lists, a second sizes their blocks, and a third
// encodes every list into arrays allocated at exactly that size: no
// uncompressed copy of the postings exists beside the blockRefs refs
// staged per gram, and the first append to a list copies that list's
// tail alone.
func (x *QGramIndex) transpose(sigs [][]uint32) {
	grams := x.dict.Len()
	lists := make([]postingList, grams)
	for _, sig := range sigs {
		for _, id := range sig {
			lists[id].n++
		}
		x.entries += len(sig)
	}
	// Two passes over the signatures: the first sizes every list's
	// blocks and allocates its arrays, the second encodes. seen[id]
	// counts the refs of list id met so far in a pass; a block's refs
	// are staged in stage[id*blockRefs:] until it is complete.
	seen := make([]int32, grams)
	stage := make([]int32, grams*blockRefs)
	size := make([]int, grams)
	for pass := range 2 {
		for ref, sig := range sigs {
			for _, id := range sig {
				l := &lists[id]
				k := int(seen[id])
				seen[id]++
				if k >= l.n/blockRefs*blockRefs {
					if pass == 1 {
						l.tail = append(l.tail, int32(ref))
					}
					continue
				}
				block := stage[int(id)*blockRefs : (int(id)+1)*blockRefs]
				block[k%blockRefs] = int32(ref)
				switch {
				case k%blockRefs < blockRefs-1:
				case pass == 0:
					size[id] += blockLen(block)
				default:
					l.blocks = appendBlock(l.blocks, block)
				}
			}
		}
		if pass == 0 {
			for id := range lists {
				l := &lists[id]
				if size[id] > 0 {
					l.blocks = make([]byte, 0, size[id])
				}
				if t := l.n % blockRefs; t > 0 {
					l.tail = make([]int32, 0, t)
				}
			}
			clear(seen)
		}
	}
	for _, l := range lists {
		if l.n == 0 {
			x.postings.Append(nil)
			continue
		}
		x.buckets++
		x.encBytes += len(l.blocks)
		x.tailRefs += len(l.tail)
		x.postings.Append(&l) // its own object: a header copied away by a later generation dies alone
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
		if l := x.postings.At(id); l == nil || int(l.first()) >= minRef {
			continue
		}
		l := x.mutList(id)
		blocks, tail := len(l.blocks), len(l.tail)
		dropped += l.evictBelow(int32(minRef))
		x.encBytes += len(l.blocks) - blocks
		x.tailRefs += len(l.tail) - tail
		if l.n == 0 {
			*x.postings.Mut(id) = nil
			x.buckets--
		}
	}
	x.sigFloor = max(x.sigFloor, min(minRef, x.indexed))
	x.entries -= dropped
	return dropped
}

// evictBelow removes the refs below minRef from the list and returns how
// many it removed. Blocks wholly below minRef are dropped, the block the
// cut falls in is re-encoded with its survivors as the new first block,
// and the blocks after it are copied as they are — into a fresh array,
// so the evicted prefix becomes garbage and no generation sharing the
// old array sees a write. The tail is cut only when every block went.
func (l *postingList) evictBelow(minRef int32) int {
	var buf [blockRefs]int32
	dropped := 0
	var head []byte
	enc := l.blocks
	for len(enc) > 0 {
		refs, rest := decodeBlock(enc, &buf)
		cut, _ := slices.BinarySearch(refs, minRef)
		dropped += cut
		if cut == len(refs) {
			enc = rest
			continue
		}
		if cut > 0 {
			head, enc = appendBlock(nil, refs[cut:]), rest
		}
		break
	}
	if len(head)+len(enc) < len(l.blocks) {
		l.blocks = nil
		if len(head)+len(enc) > 0 {
			l.blocks = append(head, enc...)
		}
	}
	if len(l.blocks) == 0 {
		cut, _ := slices.BinarySearch(l.tail, minRef)
		dropped += cut
		if cut > 0 {
			l.tail = slices.Clone(l.tail[cut:])
		}
	}
	l.n -= dropped
	return dropped
}

// GramSize returns |q(key)| for the stored tuple at ref: beside the
// overlap, all that verification needs of it. Valid for evicted refs.
func (x *QGramIndex) GramSize(ref int) int { return int(x.sizes[ref]) }

// at returns gram id's posting list: nil for an empty list, for
// qgram.NoID and for grams interned but not yet in the postings table.
func (x *QGramIndex) at(id uint32) *postingList {
	if uint(id) >= uint(x.postings.Len()) {
		return nil
	}
	return x.postings.At(int(id))
}

// listLen returns the length of gram id's posting list.
func (x *QGramIndex) listLen(id uint32) int {
	if l := x.at(id); l != nil {
		return l.n
	}
	return 0
}

// appendList appends gram id's posting list, decoded, to dst.
func (x *QGramIndex) appendList(dst []int32, id uint32) []int32 {
	if l := x.at(id); l != nil {
		return l.appendTo(dst)
	}
	return dst
}

// PostingBytes returns what the postings occupy: the encoded block
// bytes plus 4 bytes per uncompressed tail ref (array slack and list
// headers aside).
func (x *QGramIndex) PostingBytes() int { return x.encBytes + 4*x.tailRefs }

// Frequency returns the number of indexed tuples containing gram g.
func (x *QGramIndex) Frequency(g string) int {
	id, ok := x.dict.IDOf(g)
	if !ok {
		return 0
	}
	return x.listLen(id)
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
	order  []uint64
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
	// if fewer than minOverlap survive, nothing can qualify. Each
	// survivor is held as its list length and id packed into one word,
	// so the rarest-first order below is a plain integer sort.
	order := sc.order[:0]
	for _, id := range ids {
		if n := x.listLen(id); n > 0 {
			order = append(order, uint64(n)<<32|uint64(id))
		}
	}
	sc.order = order
	m := len(order)
	if m < minOverlap {
		return nil
	}
	if optimised {
		// Rarest grams first: the admission window then generates the
		// fewest candidates. The tie-break (by id) is arbitrary for
		// results (counts of admitted candidates are always complete)
		// but fixed for determinism.
		slices.Sort(order)
	}
	ids = ids[:m]
	for i, o := range order {
		ids[i] = uint32(o)
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
		l := x.postings.At(int(id))
		admit := i < admitUpTo
		// Blocks are decoded inline, gap by gap, straight into the count
		// filter; the tail is counted as it stands.
		for enc := l.blocks; len(enc) > 0; {
			ref, gaps, w, rest := nextBlock(enc)
			enc = rest
			sc.tally(ref, epoch, admit)
			if w == 1 { // the common width, on a loop of its own
				for _, gap := range gaps {
					ref += uint32(gap)
					sc.tally(ref, epoch, admit)
				}
				continue
			}
			for k := 0; k < len(gaps); k += w {
				ref += gapAt(gaps[k : k+w])
				sc.tally(ref, epoch, admit)
			}
		}
		for _, ref := range l.tail {
			sc.tally(uint32(ref), epoch, admit)
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

// tally is the count filter's step for one posting: a ref already
// stamped this epoch gains a count, an unstamped one is admitted as a
// candidate only inside the admission window.
func (sc *ProbeScratch) tally(ref, epoch uint32, admit bool) {
	if sc.stamps[ref] == epoch {
		sc.counts[ref]++
	} else if admit {
		sc.stamps[ref] = epoch
		sc.counts[ref] = 1
		sc.refs = append(sc.refs, int32(ref))
	}
}
