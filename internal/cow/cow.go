// Package cow holds the two persistent containers under the resident
// index's snapshot generations: a chunked vector and a layered keyed
// table of refs (a shard's exact index, a gram dictionary's ids). Both
// make the copy-on-write step of an RCU publish cost what the writer
// touches, not what the container holds — Clone copies the root of a
// chunk directory resp. a small overlay, and everything else is shared
// with the parent generation.
//
// History is linear: Clone freezes its receiver — the published
// generation, which concurrent readers keep using — and hands the
// clone to the single writer; any later write to a frozen container
// panics. A frozen container is immutable, so reads need no
// synchronisation beyond the publication of the pointer that led to
// it; the read accessors touch no field a writer of a later generation
// can change.
package cow

import "slices"

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
