package qgram

import (
	"fmt"
	"slices"
	"unicode/utf8"

	"adaptivelink/internal/cow"
)

// This file implements the dictionary-encoded gram pipeline: instead of
// materialising one string per gram on every decomposition, keys are
// decomposed into scratch-backed Key values (packed uint64 windows on
// the ASCII and BMP-rune fast paths, interned strings only for
// astral-plane or oversized grams) and grams are mapped to dense uint32
// ids by a per-index Dict. The probe hot path of the
// join engines runs entirely on these ids: posting lists are keyed by
// id, candidate counting uses epoch-stamped arrays, and verification is
// integer arithmetic over precomputed signature sizes — no per-probe
// maps, no per-gram allocations.

// NoID is the sentinel returned for grams a read-only dictionary lookup
// does not know. Probe paths must short-circuit on it (an unknown gram
// has no postings) without interning — interning is a writer-side
// operation.
const NoID = ^uint32(0)

// maxPacked is the widest gram (in bytes) the ASCII fast path can pack
// into a uint64: 7 data bytes plus a length tag byte.
const maxPacked = 7

// maxPackedRunes is the widest gram (in runes) the BMP rune path can
// pack into a uint64: 3 runes at 21 bits each (a BMP code point plus
// the +1 absence bias needs 17 bits; 21-bit fields keep headroom and
// divide 63 evenly). Revisiting the budget per plane: astral runes
// (> U+FFFF) would need 21 bits of payload plus the bias, overflowing
// the field, so they take the string fallback instead of a 2-rune
// packing — astral-plane keys are rare enough that a narrower budget
// is not worth a third scheme.
const maxPackedRunes = 3

// runeFieldBits and runeFieldMask describe one 21-bit rune field of the
// rune packing; maxBMP is the last code point the field can carry.
const (
	runeFieldBits = 21
	runeFieldMask = 1<<runeFieldBits - 1
	maxBMP        = 0xFFFF
)

// pack encodes an ASCII gram of 1..maxPacked bytes into a uint64 with
// the length in the top byte and the data big-endian below it, so that
// numeric order of packed values equals lexicographic order of
// equal-length grams — the canonical gram order the prefix-filter
// router relies on.
func pack(b []byte) uint64 {
	p := uint64(len(b)) << 56
	shift := uint(48)
	for _, c := range b {
		p |= uint64(c) << shift
		shift -= 8
	}
	return p
}

// unpack decodes a packed gram into buf, returning the gram's bytes.
func unpack(buf *[maxPacked + 1]byte, p uint64) []byte {
	l := int(p >> 56)
	shift := uint(48)
	for i := 0; i < l; i++ {
		buf[i] = byte(p >> shift)
		shift -= 8
	}
	return buf[:l]
}

// packRunes encodes a gram of 1..maxPackedRunes BMP runes into a uint64:
// rune i is stored as r+1 in the i-th 21-bit field from the top (bits
// 42..62, 21..41, 0..20; bit 63 stays clear). The +1 bias makes a zero
// field mean "absent", so the gram length is implicit and no length tag
// competes with the payload for bits. Field-by-field numeric comparison
// is rune-by-rune code-point comparison, and UTF-8 preserves code-point
// order bytewise, so for equal-length grams numeric order of packed
// values equals lexicographic order of the gram strings — the same
// canonical-order invariant the byte packing gives the prefix-filter
// router. Values from packRunes and pack are never compared with each
// other: a Key is packed under exactly one scheme (Key.runePacked).
func packRunes(rs []rune) uint64 {
	var p uint64
	shift := uint(2 * runeFieldBits)
	for _, r := range rs {
		p |= uint64(r+1) << shift
		shift -= runeFieldBits
	}
	return p
}

// runeGramBufLen is the stack-buffer size that always fits an unpacked
// rune gram: maxPackedRunes BMP runes of at most 3 UTF-8 bytes each
// (utf8.UTFMax covers astral runes, which the rune path excludes, but
// the extra headroom costs nothing on the stack).
const runeGramBufLen = maxPackedRunes * utf8.UTFMax

// unpackRunes appends the UTF-8 bytes of a rune-packed gram to buf and
// returns it; allocation-free when buf has capacity runeGramBufLen.
func unpackRunes(buf []byte, p uint64) []byte {
	for shift := 2 * runeFieldBits; ; shift -= runeFieldBits {
		f := (p >> uint(shift)) & runeFieldMask
		if f == 0 {
			break
		}
		buf = utf8.AppendRune(buf, rune(f-1))
		if shift == 0 {
			break
		}
	}
	return buf
}

// Key is one decomposed join key: its q-grams in scratch-backed form.
// On the packed fast paths grams are uint64s — byte-packed for ASCII
// keys, rune-packed for non-ASCII BMP keys (runePacked selects the
// scheme) — otherwise they are materialised strings. The grams are
// distinct and in canonical (lexicographic) order. A Key
// borrows the Scratch it was decomposed with and stays valid until that
// Scratch is Reset; it is immutable and safe to share across goroutines
// that only read it.
type Key struct {
	packed     []uint64
	strs       []string
	runePacked bool
}

// Len returns the gram count |q(s)|.
func (k Key) Len() int {
	if k.strs != nil {
		return len(k.strs)
	}
	return len(k.packed)
}

// AppendGram appends the i-th gram's bytes to buf and returns it, in
// the Key's canonical order, without allocating for packed grams when
// buf has at least runeGramBufLen spare capacity.
func (k Key) AppendGram(buf []byte, i int) []byte {
	if k.strs != nil {
		return append(buf, k.strs[i]...)
	}
	if k.runePacked {
		return unpackRunes(buf, k.packed[i])
	}
	var b [maxPacked + 1]byte
	return append(buf, unpack(&b, k.packed[i])...)
}

// Scratch holds the reusable buffers of the decomposition fast path.
// It is an arena: decompositions append and the resulting Keys borrow
// the arena until Reset. A Scratch serves one goroutine at a time.
// The zero value is ready to use.
type Scratch struct {
	buf    []byte   // padded bytes of the key being decomposed
	runes  []rune   // fallback: padded runes
	win    []uint64 // raw packed windows before dedup
	packed []uint64 // arena of packed grams backing Keys
	strs   []string // arena of fallback gram strings backing Keys
	seen   map[string]struct{}
}

// Reset forgets every decomposition made since the previous Reset,
// keeping the allocated capacity. Keys borrowed from this Scratch are
// invalidated.
func (sc *Scratch) Reset() {
	sc.packed = sc.packed[:0]
	sc.strs = sc.strs[:0]
}

// Decompose is the allocation-free counterpart of Grams: it decomposes
// s into a scratch-backed Key of its distinct padded grams.
// ASCII keys (with q small enough to byte-pack) and non-ASCII keys
// whose runes all sit in the Basic Multilingual Plane (with q small
// enough to rune-pack) never materialise gram strings at all; only
// astral-plane or oversized-gram keys fall back to the string path.
// The returned Key borrows sc and is valid until sc.Reset.
func (e *Extractor) Decompose(sc *Scratch, s string) Key {
	if len(s) == 0 {
		return Key{}
	}
	if isASCII(s) {
		if e.q <= maxPacked {
			return e.decomposeASCII(sc, s)
		}
	} else if e.q <= maxPackedRunes {
		if k, ok := e.decomposeRunes(sc, s); ok {
			return k
		}
	}
	return e.decomposeSlow(sc, s)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func (e *Extractor) decomposeASCII(sc *Scratch, s string) Key {
	buf := sc.buf[:0]
	for i := 0; i < e.q-1; i++ {
		buf = append(buf, PadLeft)
	}
	buf = append(buf, s...)
	for i := 0; i < e.q-1; i++ {
		buf = append(buf, PadRight)
	}
	sc.buf = buf

	win := sc.win[:0]
	for i := 0; i+e.q <= len(buf); i++ {
		win = append(win, pack(buf[i:i+e.q]))
	}
	return Key{packed: sc.distinct(win)}
}

// distinct sorts the raw packed windows of one key and appends the
// distinct ones to the arena, returning the arena view backing the Key.
// Numeric order of packed values is the canonical lexicographic gram
// order under either packing scheme (see pack and packRunes).
func (sc *Scratch) distinct(win []uint64) []uint64 {
	sc.win = win
	slices.Sort(win)
	start := len(sc.packed)
	for i, p := range win {
		if i > 0 && p == win[i-1] {
			continue
		}
		sc.packed = append(sc.packed, p)
	}
	return sc.packed[start:]
}

// decomposeRunes is the packed fast path for non-ASCII keys: it pads
// rune by rune, packs each q-rune window with packRunes, and
// sorts/dedups numerically exactly like decomposeASCII. It reports
// ok=false — leaving the caller to fall back to the string path —
// when any rune lies outside the BMP, where the 21-bit field would
// overflow. Invalid UTF-8 decodes to U+FFFD here just as it does in
// Grams, so the two paths agree on mangled input.
func (e *Extractor) decomposeRunes(sc *Scratch, s string) (Key, bool) {
	runes := sc.runes[:0]
	for i := 0; i < e.q-1; i++ {
		runes = append(runes, PadLeft)
	}
	for _, r := range s {
		if r > maxBMP {
			sc.runes = runes
			return Key{}, false
		}
		runes = append(runes, r)
	}
	for i := 0; i < e.q-1; i++ {
		runes = append(runes, PadRight)
	}
	sc.runes = runes

	win := sc.win[:0]
	for i := 0; i+e.q <= len(runes); i++ {
		win = append(win, packRunes(runes[i:i+e.q]))
	}
	return Key{packed: sc.distinct(win), runePacked: true}, true
}

// decomposeSlow handles astral-plane keys and gram widths too large to
// pack. Gram strings are materialised (one allocation each), but dedup
// still reuses the scratch map instead of allocating one per call.
func (e *Extractor) decomposeSlow(sc *Scratch, s string) Key {
	runes := appendPadded(sc.runes[:0], s, e.q)
	sc.runes = runes

	start := len(sc.strs)
	if sc.seen == nil {
		sc.seen = make(map[string]struct{})
	} else {
		clear(sc.seen)
	}
	for i := 0; i+e.q <= len(runes); i++ {
		g := string(runes[i : i+e.q])
		if _, dup := sc.seen[g]; dup {
			continue
		}
		sc.seen[g] = struct{}{}
		sc.strs = append(sc.strs, g)
	}
	out := sc.strs[start:]
	slices.Sort(out) // canonical order, as on the packed path
	return Key{strs: out}
}

// Dict interns grams into dense uint32 ids: the dictionary encoding
// shared by a q-gram index and its probes. Ids are assigned in intern
// order, are stable forever (a Clone never renumbers), and stay below
// Len. A Dict is NOT safe for concurrent mutation; the join engines
// treat it as part of the index it belongs to — writers intern under
// the index's write discipline and publish each generation to readers
// by Clone, while probes use the read-only lookups. A Dict is its
// grams in id order, a cow.Vec, and a cow.Table from gram to id (an id
// is the gram's ref): a Clone shares both and owns only what is
// interned since.
type Dict struct {
	grams gramList
	ids   cow.Table
}

// gramList is a Dict's grams in id order: the keys of its table.
type gramList struct{ cow.Vec[string] }

func (g *gramList) Key(id int) string { return g.At(id) }

// NewDict returns an empty dictionary.
func NewDict() *Dict { return newDict(0) }

// newDict returns an empty dictionary with room for n grams.
func newDict(n int) *Dict {
	d := new(Dict)
	d.ids = cow.NewTable(&d.grams, n)
	return d
}

// Len returns the number of interned grams; every assigned id is below
// it.
func (d *Dict) Len() int { return d.grams.Len() }

// Clone freezes d — interning into it afterwards panics — and returns
// the next generation: existing ids are preserved, and interning into
// the clone never disturbs readers of d.
func (d *Dict) Clone() *Dict {
	c := &Dict{grams: gramList{d.grams.Clone()}}
	c.ids = d.ids.Clone(&c.grams)
	return c
}

// IDOf returns the id of a gram given as a string, for diagnostics and
// frequency lookups outside the hot path.
func (d *Dict) IDOf(gram string) (uint32, bool) {
	id, ok := d.ids.Get(gram)
	return uint32(id), ok
}

// Grams returns the interned grams in id order (Grams()[id] is the gram
// assigned id): the stable serialization of the dictionary. The slice
// is freshly allocated and owned by the caller.
func (d *Dict) Grams() []string {
	out := make([]string, d.grams.Len())
	for id := range out {
		out[id] = d.grams.At(id)
	}
	return out
}

// DictFromGrams reconstructs a dictionary from a Grams() enumeration,
// assigning each gram its position as id — the deserialization inverse
// of Grams. Duplicate grams would silently renumber ids, so they are
// rejected with a descriptive error (a snapshot decoder's corruption
// guard).
func DictFromGrams(grams []string) (*Dict, error) {
	d := newDict(len(grams))
	for i, g := range grams {
		if d.internString(g) != uint32(i) {
			return nil, fmt.Errorf("qgram: duplicate gram %q at id %d in dictionary enumeration", g, i)
		}
	}
	return d, nil
}

// gramBytes returns the bytes of k's i-th packed gram, unpacked into b.
func (k Key) gramBytes(b *[runeGramBufLen]byte, i int) []byte {
	if k.runePacked {
		return unpackRunes(b[:0], k.packed[i])
	}
	return unpack((*[maxPacked + 1]byte)(b[:]), k.packed[i])
}

// AppendIDs maps k's grams to ids, appending one id per gram to dst in
// the Key's order. Unknown grams append NoID: a read-only lookup never
// grows the dictionary, so it is safe on shared immutable dicts and
// allocates nothing.
func (d *Dict) AppendIDs(dst []uint32, k Key) []uint32 {
	var b [runeGramBufLen]byte
	for i, n := 0, k.Len(); i < n; i++ {
		var id int32
		var ok bool
		if k.strs != nil {
			id, ok = d.ids.Get(k.strs[i])
		} else {
			id, ok = d.ids.GetBytes(k.gramBytes(&b, i))
		}
		if ok {
			dst = append(dst, uint32(id))
		} else {
			dst = append(dst, NoID)
		}
	}
	return dst
}

// Intern maps k's grams to ids like AppendIDs but assigns the next
// dense id to each gram not yet present. Writer-side only.
func (d *Dict) Intern(dst []uint32, k Key) []uint32 {
	for _, g := range k.strs { // string-fallback Key: packed is empty
		dst = append(dst, d.internString(g))
	}
	var b [runeGramBufLen]byte
	for i := range k.packed {
		bs := k.gramBytes(&b, i)
		if id, ok := d.ids.GetBytes(bs); ok {
			dst = append(dst, uint32(id))
		} else {
			dst = append(dst, d.internString(string(bs)))
		}
	}
	return dst
}

func (d *Dict) internString(g string) uint32 {
	h := cow.Hash(g)
	if id, ok := d.ids.Find(g, h); ok {
		return uint32(id)
	}
	d.grams.Append(g)
	d.ids.Add(h)
	return uint32(d.grams.Len() - 1)
}

// IntersectSortedIDs returns |a ∩ b| for two ascending, deduplicated
// id slices by a sorted merge — the id-based counterpart of
// Intersection, with no map and no allocation.
func IntersectSortedIDs(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
