package cow

import (
	"hash/maphash"
	"math/bits"
	"unsafe"
)

// seed seeds Hash. Tables are never persisted, so one seed per process
// serves.
var seed = maphash.MakeSeed()

// Hash is the hash a Table files a key under.
func Hash(key string) uint64 { return maphash.String(seed, key) }

// Keys is where a Table's caller stores the keys: Key returns the key
// under a ref. The key under a ref never changes.
type Keys interface{ Key(ref int) string }

// foldScale bounds a Table's overlay: a Clone whose overlay has reached
// sqrt(foldScale·base) keys folds both layers into a fresh base. The
// square root balances the two costs of a layered table of n keys —
// every Clone copies the overlay, every fold re-inserts the base — at
// O(sqrt n) per Clone and per inserted key; a fixed fraction of n would
// let the per-Clone copy grow linearly with the table.
const foldScale = 8

// Table maps string keys to the dense refs 0..Len-1, the ref of a key
// being its insertion rank. It holds refs only: keys are read through
// the caller's Keys. It has two layers — a base shared by pointer with
// earlier generations and a small overlay of the refs added since the
// base was built — which hold disjoint refs; lookups try the base
// first. A Table only gains keys.
type Table struct {
	keys Keys
	base *refs
	// over is nil while base is writer-owned (never shared, or fresh
	// from a fold): Add then goes straight to base.
	over   *refs
	frozen bool
}

// NewTable returns an empty writer-owned table over keys with room for
// n keys.
func NewTable(keys Keys, n int) Table { return Table{keys: keys, base: newRefs(0, n)} }

// Len returns the number of keys.
func (t *Table) Len() int {
	n := t.base.n
	if t.over != nil {
		n += t.over.n
	}
	return n
}

// Get returns the ref of key.
func (t *Table) Get(key string) (int32, bool) { return t.Find(key, Hash(key)) }

// GetBytes is Get for a key held as bytes; it does not allocate.
func (t *Table) GetBytes(key []byte) (int32, bool) {
	return t.Get(unsafe.String(unsafe.SliceData(key), len(key))) // only compared, never kept
}

// Find is Get for a key whose Hash the caller has.
func (t *Table) Find(key string, h uint64) (int32, bool) {
	if ref, ok := t.base.find(t.keys, key, h); ok {
		return ref, true
	}
	if t.over != nil {
		return t.over.find(t.keys, key, h)
	}
	return 0, false
}

// Add indexes the next ref, Len, whose key the caller has stored and
// which hashes to h; the key must be new to the table.
func (t *Table) Add(h uint64) {
	if t.frozen {
		panic("cow: write to a Table frozen by Clone; write to the clone")
	}
	r := &t.base
	if t.over != nil {
		r = &t.over
	}
	if (*r).full() {
		*r = (*r).grown(t.keys)
	}
	(*r).insert(h, int32(t.Len()))
}

// Clone freezes t and returns the next generation over keys, which
// must hold t's keys under t's refs: it shares t's base and copies its
// overlay, or folds both into a fresh base.
func (t *Table) Clone(keys Keys) Table {
	t.frozen = true
	c := Table{keys: keys, base: t.base}
	if t.over == nil {
		c.over = newRefs(int32(t.base.n), 0)
	} else {
		c.over = &refs{slots: append([]uint32(nil), t.over.slots...), n: t.over.n, lo: t.over.lo}
	}
	if c.over.n*c.over.n >= foldScale*c.base.n {
		// The fresh base is writer-owned until the next Clone, so it
		// keeps room for the rest of the batch.
		n := c.Len()
		c.base, c.over = newRefs(0, n+n/8), nil
		for ref := range n {
			c.base.insert(Hash(keys.Key(ref)), int32(ref))
		}
	}
	return c
}

// refs is one layer of a Table: open addressing with linear probing
// over the dense refs lo..lo+n-1, its home slot the key hash's lower
// half scaled to the table (so a layer is sized to its keys, not to a
// power of two). A slot is 0 when empty; otherwise its low bits, as
// many as the slot count needs, hold ref-lo+1 and the bits above them
// the same bits of the hash's upper half, so a probe compares a key
// (through Keys) only on a match of those.
type refs struct {
	slots []uint32
	n     int
	lo    int32
}

// newRefs returns a layer for the refs from lo with room for n of them
// at a load of 3/4.
func newRefs(lo int32, n int) *refs {
	return &refs{slots: make([]uint32, max(8, (4*n+2)/3)), lo: lo}
}

// full reports whether one more ref would load the layer past 3/4.
func (r *refs) full() bool { return 4*(r.n+1) > 3*len(r.slots) }

// layout returns the layer's first probe slot for hash h, and the mask
// of the slot bits that hold a ref.
func (r *refs) layout(h uint64) (home, mask uint32) {
	size := uint32(len(r.slots))
	return uint32(uint64(uint32(h)) * uint64(size) >> 32), 1<<bits.Len32(size) - 1
}

func (r *refs) find(keys Keys, key string, h uint64) (int32, bool) {
	if r.n == 0 {
		return 0, false
	}
	i, mask := r.layout(h)
	tag := uint32(h>>32) &^ mask
	for {
		v := r.slots[i]
		if v == 0 {
			return 0, false
		}
		if v&^mask == tag {
			if ref := r.lo + int32(v&mask) - 1; keys.Key(int(ref)) == key {
				return ref, true
			}
		}
		if i++; int(i) == len(r.slots) {
			i = 0
		}
	}
}

// insert adds ref, the layer's next dense ref, under hash h; the layer
// must have room.
func (r *refs) insert(h uint64, ref int32) {
	i, mask := r.layout(h)
	for r.slots[i] != 0 {
		if i++; int(i) == len(r.slots) {
			i = 0
		}
	}
	r.slots[i] = uint32(h>>32)&^mask | uint32(ref-r.lo+1)
	r.n++
}

// grown returns r rebuilt with twice the slots, rehashing its keys.
func (r *refs) grown(keys Keys) *refs {
	g := &refs{slots: make([]uint32, 2*len(r.slots)), lo: r.lo}
	for ref := r.lo; ref < r.lo+int32(r.n); ref++ {
		g.insert(Hash(keys.Key(int(ref))), ref)
	}
	return g
}
