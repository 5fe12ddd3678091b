package join

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"

	"adaptivelink/internal/cow"
	"adaptivelink/internal/relation"
)

// A shard owns the bytes of its tuples. Its store is three structures,
// none of which holds a pointer into a request body, a decoded snapshot
// or a caller's tuples:
//
//   - an arena of byte chunks holding, per tuple, its key (length-
//     prefixed) followed by its attribute bytes;
//   - an arena of string chunks holding each tuple's attribute headers,
//     which point into the byte arena, so a tuple's Attrs is a slice of
//     one chunk;
//   - a chunked copy-on-write table of pointer-free entries: the
//     tuple's ID, its key's byte-arena address and its attributes'
//     string-arena span.
//
// Both arenas are append-only: a chunk's elements are written once,
// before any snapshot that reaches them is published, and never again,
// so the relation.Tuple a probe returns — a Key over the byte arena and
// Attrs over the string arena — stays valid and unchanged whatever is
// upserted or compacted later (the RCU contract extended to results). A
// replacement appends its attributes and re-points its entry; what it
// orphans is counted as dead and reclaimed by compaction (tupleStore.
// compact), which copies the live tuples into fresh chunks once dead
// bytes exceed a fixed share of live ones.
//
// The exact index is a cow.Table over the store: it holds local refs
// only, and reads their keys through the entries (tupleStore.Key).

// arenaSlotBytes is the span of the address space one arena directory
// slot covers, and the size of a full arena chunk. Chunks start small
// and double up to it, so a small shard holds little slack.
const (
	arenaSlotBytes = 16 << 10
	minChunkBytes  = 256
)

// arena is an append-only store of T in chunks. An address is a slot of
// the directory and an offset within it: a slot covers arenaSlotBytes
// of T, a chunk starts at a slot boundary and occupies as many slots as
// it spans, and each slot holds the rest of its chunk, so an allocation
// (which never straddles two chunks) is one slice of one slot. The
// directory is shared with earlier generations and appended past what
// they see; elements are written once, past every address an earlier
// generation reaches.
type arena[T any] struct {
	dir  [][]T
	next uint64 // the next free address
	end  uint64 // the end of the last chunk's addresses
}

// shift is log2 of the elements a directory slot covers.
func (a *arena[T]) shift() uint {
	var zero T
	return uint(bits.TrailingZeros(arenaSlotBytes / uint(unsafe.Sizeof(zero))))
}

// at returns the elements from addr to the end of its chunk.
func (a *arena[T]) at(addr uint64) []T {
	sh := a.shift()
	return a.dir[addr>>sh][addr&(1<<sh-1):]
}

// alloc returns the address of n fresh elements and the slice through
// which to write them, adding a chunk of at least want elements when
// the last one has no room.
func (a *arena[T]) alloc(n, want int) (uint64, []T) {
	if a.next+uint64(n) > a.end {
		a.grow(max(n, want))
	}
	addr := a.next
	a.next += uint64(n)
	return addr, a.at(addr)[:n:n]
}

// grow adds a chunk of n elements at the next slot boundary.
func (a *arena[T]) grow(n int) {
	sh := a.shift()
	c := make([]T, n)
	first := uint64(len(a.dir))
	for off := 0; off < n; off += 1 << sh {
		a.dir = append(a.dir, c[off:])
	}
	a.next, a.end = first<<sh, first<<sh+uint64(n)
}

// nextChunk is the size of the chunk an arena of held elements adds:
// as large again as what it holds, within [minChunkBytes,
// arenaSlotBytes] worth of T.
func (a *arena[T]) nextChunk(held int) int {
	var zero T
	size := int(unsafe.Sizeof(zero))
	return min(arenaSlotBytes/size, max(minChunkBytes/size, held))
}

// entry is one resident tuple. It holds no pointer, so the entry table
// is not scanned by the collector and a copy-on-write chunk copy is a
// memmove.
type entry struct {
	id    int64
	key   uint64 // byte-arena address: the key's length as a uvarint, then its bytes
	attrs uint32 // string-arena address of the attribute headers
	nattr uint32 // attribute count, nilAttrs for a nil Attrs
}

// nilAttrs marks an entry whose tuple had nil Attrs, as opposed to an
// empty non-nil slice: the store gives back what it was given.
const nilAttrs = math.MaxUint32

// compactDeadShare is the compaction rule: a shard's store is copied
// into fresh chunks once its dead bytes — attributes and attribute
// headers that replacements orphaned — exceed 1/compactDeadShare of
// its live bytes.
const compactDeadShare = 16

// tupleStore is one shard's tuple store, indexed by local ref.
type tupleStore struct {
	ents  cow.Vec[entry]
	bytes arena[byte]
	strs  arena[string]
	// live counts the arena bytes the entries reach, dead those only
	// superseded entries reached.
	live, dead int
}

// storeSize is what a tuple costs the arenas: its item's bytes and its
// attribute headers.
func storeSize(t *relation.Tuple) (nbytes, nstrs int) {
	return uvarintLen(len(t.Key)) + len(t.Key) + attrBytes(t.Attrs), len(t.Attrs)
}

func attrBytes(attrs []string) (n int) {
	for _, a := range attrs {
		n += len(a)
	}
	return n
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// newTupleStore returns an empty store whose first chunks hold exactly
// nbytes and nstrs: a bulk build or a compaction sizes them to what it
// copies in, so the store holds no slack.
func newTupleStore(nbytes, nstrs int) *tupleStore {
	st := new(tupleStore)
	if nbytes > 0 {
		st.bytes.grow(nbytes)
	}
	if nstrs > 0 {
		st.strs.grow(nstrs)
	}
	return st
}

// Len returns the number of tuples.
func (st *tupleStore) Len() int { return st.ents.Len() }

// At returns the tuple at a local ref, as a view over the arenas.
func (st *tupleStore) At(lref int) relation.Tuple {
	e := st.ents.At(lref)
	return relation.Tuple{ID: int(e.id), Key: st.keyAt(e.key), Attrs: st.attrsOf(&e)}
}

// Key returns the key at a local ref.
func (st *tupleStore) Key(lref int) string { return st.keyAt(st.ents.At(lref).key) }

func (st *tupleStore) keyAt(addr uint64) string {
	b := st.bytes.at(addr)
	n, w := uint64(b[0]), 1
	if n >= 0x80 {
		n, w = binary.Uvarint(b)
	}
	if n == 0 {
		return ""
	}
	return unsafe.String(&b[w], n)
}

func (st *tupleStore) attrsOf(e *entry) []string {
	switch e.nattr {
	case nilAttrs:
		return nil
	case 0:
		return []string{}
	}
	n := int(e.nattr)
	return st.strs.at(uint64(e.attrs))[:n:n]
}

// add appends t under the next local ref, copying its bytes in.
func (st *tupleStore) add(t *relation.Tuple) {
	nbytes, _ := storeSize(t)
	addr, b := st.bytes.alloc(nbytes, st.bytes.nextChunk(st.live))
	w := binary.PutUvarint(b, uint64(len(t.Key)))
	copy(b[w:], t.Key)
	e := entry{id: int64(t.ID), key: addr}
	st.putAttrs(&e, b[w+len(t.Key):], t.Attrs)
	st.ents.Append(e)
	st.live += nbytes + stringBytes*len(t.Attrs)
}

// stringBytes is the size of a string header in the string arena.
const stringBytes = int(unsafe.Sizeof(""))

// putAttrs copies attrs into b, which has room for their bytes, and
// their headers into the string arena, pointing e at them.
func (st *tupleStore) putAttrs(e *entry, b []byte, attrs []string) {
	if attrs == nil {
		e.nattr = nilAttrs
		return
	}
	e.nattr = uint32(len(attrs))
	if len(attrs) == 0 {
		return
	}
	addr, hs := st.strs.alloc(len(attrs), st.strs.nextChunk(st.live/stringBytes))
	if addr > math.MaxUint32 {
		panic("join: a shard's attribute arena outgrew its 32-bit address space")
	}
	e.attrs = uint32(addr)
	for i, a := range attrs {
		if a == "" {
			continue // hs[i] is already ""
		}
		n := copy(b, a)
		hs[i] = unsafe.String(unsafe.SliceData(b), n)
		b = b[n:]
	}
}

// replace gives the tuple at lref, whose key t shares, t's ID and
// attributes: the attributes are appended and the entry re-pointed,
// and what the old ones held is dead.
func (st *tupleStore) replace(lref int, t *relation.Tuple) {
	e := st.ents.Mut(lref)
	old := st.attrsOf(e)
	gone := attrBytes(old) + stringBytes*len(old)
	nbytes := attrBytes(t.Attrs)
	var b []byte
	if nbytes > 0 {
		_, b = st.bytes.alloc(nbytes, st.bytes.nextChunk(st.live))
	}
	e.id = int64(t.ID)
	st.putAttrs(e, b, t.Attrs)
	st.live += nbytes + stringBytes*len(t.Attrs) - gone
	st.dead += gone
}

// clone returns the writable successor of a published store: the
// entry table's chunks and both arenas are shared, and the arenas are
// appended past what the published store reaches.
func (st *tupleStore) clone() *tupleStore {
	next := *st
	next.ents = st.ents.Clone()
	return &next
}

// wasteful reports whether the compaction rule calls for a compact.
func (st *tupleStore) wasteful() bool { return st.dead*compactDeadShare > st.live }

// compact copies every tuple into fresh, exactly sized chunks and a
// fresh entry table, dropping the dead bytes. Only the writer's clone
// is compacted: published stores keep the chunks their views point
// into.
func (st *tupleStore) compact() {
	nbytes, nstrs := 0, 0
	for lref := range st.Len() {
		t := st.At(lref)
		b, s := storeSize(&t)
		nbytes, nstrs = nbytes+b, nstrs+s
	}
	fresh := newTupleStore(nbytes, nstrs)
	for lref := range st.Len() {
		t := st.At(lref)
		fresh.add(&t)
	}
	*st = *fresh
}

// keyHash is the hash a shard's exact index files a key under.
func keyHash(key string) uint64 { return cow.Hash(key) }
