// Package cow holds the two persistent containers under the resident
// index's snapshot generations: a chunked vector and a layered string
// map. Both make the copy-on-write step of an RCU publish cost what
// the writer touches, not what the container holds — Clone copies the
// root of a chunk directory resp. a small overlay, and everything else
// is shared with the parent generation.
//
// History is linear: Clone freezes its receiver — the published
// generation, which concurrent readers keep using — and hands the
// clone to the single writer; any later write to a frozen container
// panics. A frozen container is immutable, so reads need no
// synchronisation beyond the publication of the pointer that led to
// it; the read accessors touch no field a writer of a later generation
// can change.
package cow

import (
	"iter"
	"maps"
	"slices"
)

// Chunk geometry of Vec. Small chunks keep a point write cheap (one
// chunk copy: 64 elements); the directory is two-level, leaves of 64
// chunk pointers under a root a Clone copies, so a Clone copies one
// pointer per 4096 elements and a generation's first write under a leaf
// copies that leaf's 64 pointers.
const (
	chunkBits = 6
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
	leafBits  = 6
	leafSize  = 1 << leafBits
	leafMask  = leafSize - 1
)

type leaf[T any] [leafSize]*[chunkSize]T

// Vec is a persistent vector with dense indexes: elements live in
// fixed-size chunks behind a directory, a Clone shares every chunk and
// leaf, and the first write a generation makes to a chunk copies that
// chunk (and its leaf) alone. A chunk is exactly its elements, so it
// fills its allocation size class; which chunks and leaves a generation
// may write in place are bit sets beside the directory. The zero value
// is an empty vector.
type Vec[T any] struct {
	dir []*leaf[T]
	// ownLeaves and ownChunks have a bit set for each leaf and chunk
	// this generation made, which no other generation can see.
	ownLeaves, ownChunks bitset
	n                    int
	frozen               bool
}

// Len returns the element count.
func (v *Vec[T]) Len() int { return v.n }

// At returns element i, which must be below Len.
func (v *Vec[T]) At(i int) T {
	return v.dir[i>>(chunkBits+leafBits)][i>>chunkBits&leafMask][i&chunkMask]
}

// Clone freezes v and returns the next generation: it shares every
// chunk and leaf with v until it writes under them.
func (v *Vec[T]) Clone() Vec[T] {
	v.frozen = true
	return Vec[T]{dir: slices.Clone(v.dir), n: v.n}
}

// Mut returns a pointer through which element i may be written,
// copying the element's chunk first unless this generation already
// owns it. The pointer is valid until the next Clone.
func (v *Vec[T]) Mut(i int) *T {
	if v.frozen {
		panic("cow: write to a Vec frozen by Clone; write to the clone")
	}
	l, c := v.leaf(i>>(chunkBits+leafBits)), i>>chunkBits
	if !v.ownChunks.has(c) {
		cp := *l[c&leafMask]
		l[c&leafMask] = &cp
		v.ownChunks.set(c)
	}
	return &l[c&leafMask][i&chunkMask]
}

// leaf returns leaf li for writing, copying it first unless this
// generation owns it.
func (v *Vec[T]) leaf(li int) *leaf[T] {
	if !v.ownLeaves.has(li) {
		cp := *v.dir[li]
		v.dir[li] = &cp
		v.ownLeaves.set(li)
	}
	return v.dir[li]
}

// Append adds x under index Len.
func (v *Vec[T]) Append(x T) {
	if v.n&chunkMask == 0 {
		c := v.n >> chunkBits
		if c&leafMask == 0 {
			v.dir = append(v.dir, new(leaf[T]))
			v.ownLeaves.set(len(v.dir) - 1)
		}
		v.leaf(c >> leafBits)[c&leafMask] = new([chunkSize]T)
		v.ownChunks.set(c)
	}
	v.n++
	*v.Mut(v.n - 1) = x
}

// bitset is a growable set of small non-negative integers.
type bitset []uint64

func (b bitset) has(i int) bool { return i>>6 < len(b) && b[i>>6]&(1<<(i&63)) != 0 }

func (b *bitset) set(i int) {
	for i>>6 >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[i>>6] |= 1 << (i & 63)
}

// foldScale bounds a Map's overlay: a Clone whose overlay has reached
// sqrt(foldScale·len(base)) keys folds both layers into a fresh base.
// The square root balances the two costs of a layered map of n keys —
// every Clone copies the overlay, every fold re-inserts the base — at
// O(sqrt n) per Clone and per inserted key; a fixed fraction of n would
// let the per-Clone copy grow linearly with the map.
const foldScale = 8

// Map is a string-keyed map in two layers: a base shared by pointer
// with earlier generations and a small overlay of the keys added since
// the base was built. Lookups try the base first. The layers hold
// disjoint keys; a write to a key of a shared base folds first, which
// the resident index never does (its maps only gain keys).
type Map[V any] struct {
	base map[string]V
	// over is nil while base is writer-owned (never shared, or fresh
	// from a fold): writes then go straight to base.
	over   map[string]V
	frozen bool
}

// NewMap returns an empty map with room for hint keys.
func NewMap[V any](hint int) Map[V] { return Map[V]{base: make(map[string]V, hint)} }

// Len returns the number of keys.
func (m *Map[V]) Len() int { return len(m.base) + len(m.over) }

// Get returns the value stored under key.
func (m *Map[V]) Get(key string) (V, bool) {
	v, ok := m.base[key]
	if !ok && len(m.over) > 0 {
		v, ok = m.over[key]
	}
	return v, ok
}

// GetBytes is Get for a key held as bytes; it does not allocate.
func (m *Map[V]) GetBytes(key []byte) (V, bool) {
	v, ok := m.base[string(key)]
	if !ok && len(m.over) > 0 {
		v, ok = m.over[string(key)]
	}
	return v, ok
}

// All iterates over every key/value pair, in no particular order.
func (m *Map[V]) All() iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		for k, v := range m.base {
			if !yield(k, v) {
				return
			}
		}
		for k, v := range m.over {
			if !yield(k, v) {
				return
			}
		}
	}
}

// Put stores v under key.
func (m *Map[V]) Put(key string, v V) {
	if m.over != nil {
		if _, shared := m.base[key]; !shared {
			m.checkLive()
			m.over[key] = v
			return
		}
	}
	m.Own()[key] = v
}

// Own folds the layers into one writer-owned base and returns it for
// bulk mutation; the map must not be read through its methods while
// the caller iterates and deletes.
func (m *Map[V]) Own() map[string]V {
	m.checkLive()
	if m.over != nil {
		base := make(map[string]V, m.Len())
		maps.Copy(base, m.base)
		maps.Copy(base, m.over)
		m.base, m.over = base, nil
	}
	return m.base
}

// Clone freezes m and returns the next generation, sharing m's base.
func (m *Map[V]) Clone() Map[V] {
	m.frozen = true
	c := Map[V]{base: m.base, over: make(map[string]V, len(m.over))}
	maps.Copy(c.over, m.over)
	if Folds(len(c.over), len(c.base)) {
		c.Own()
	}
	return c
}

// Folds reports whether a layered table whose overlay holds over keys
// beside a base of base keys is due to fold both into a fresh base: the
// Map's rule, shared by the resident index's exact tables.
func Folds(over, base int) bool { return over*over >= foldScale*base }

func (m *Map[V]) checkLive() {
	if m.frozen {
		panic("cow: write to a Map frozen by Clone; write to the clone")
	}
}
