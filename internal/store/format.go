// Package store implements durability for the resident linkage
// engine: a versioned, checksummed binary snapshot format for
// ShardedRefIndex state, an upsert write-ahead log replayed on boot,
// and the directory layout that ties the two together (see Dir).
//
// # Snapshot format (version 6)
//
// A snapshot serializes a join.SnapshotView — the global tuple store
// plus, per shard, the shard's member refs — and nothing else a load
// can derive. The q-gram index is derived data: the paper's §2.3 builds
// it lazily, and so does the resident index, from a shard's keys on its
// first approximate probe. A load is a bulk build of the stored tuple
// store; stored member refs, where an image has them, are checked
// against it. Writing is one walk over the store per column; no gram is
// hashed and no key decomposed on either side.
//
//	magic   "ALSNAP\x01\n"                     8 bytes
//	header  version u32 = 6
//	        q u32, measure u32, shards u32     the compatibility triple
//	        theta f64 (IEEE bits)
//	        tuples u32                         global store size n
//	        profile len u32 + bytes            normalization profile name
//	ids     n × varint                         id − previous id − 1
//	keys    n × uvarint length, then the concatenated bytes
//	attrs   n × uvarint count, then one uvarint length per attr,
//	        then the concatenated bytes
//	shards  (repeated `shards` times)
//	        uvarint count, count × varint     global ref − previous − 1
//	footer  crc u32                            CRC-32C of all prior bytes
//
// The header is fixed-width and little-endian, as in every version.
// The sections are columns of LEB128 words (a varint is zigzag-coded,
// as encoding/binary writes it). Ids and global refs are delta-coded
// against their predecessor plus one, the first against −1, so an
// ascending dense run costs a byte a value; the arithmetic wraps, so
// any int64 sequence round-trips. A tuple costs at least three bytes
// (its id, key length and attr count).
//
// Decoding makes two passes. The first walks every column and checks
// every count and length total against the input that remains, and
// allocates nothing; the second notes, per tuple, its id and where its
// key, attr lengths and attr bytes start in the image — four words a
// tuple, no string header — and decodes the global refs into one arena.
// The load then builds the index from the image in place: each tuple's
// bytes are copied once, from the image into its home shard, and
// nothing of the image is kept. With the trailing CRC over the whole
// file, truncated, bit-flipped or hostile snapshots are rejected with
// descriptive errors — the loader never panics (FuzzSnapshotDecode
// decodes every input as given and with its checksum re-sealed) and
// never yields a partial index.
//
// Version 5 had the same header and fixed-width sections: n × i64 ids;
// the keys as a string blob (count u32, (count+1) × u32 ascending
// offsets, the concatenated bytes); (n+1) × u32 offsets into a flat
// attr list and that list as a string blob; per shard, a u32 count and
// count × u32 global refs. That stream of the store and the shards is
// still the canonical content encoding DigestView fingerprints, so a
// content digest does not depend on the file version.
//
// Versions 3 and 4 still load. Version 4 stored, after each shard's
// globals, the shard's dictionary-encoded q-gram index — the
// n·(|jA|+q−1) (ref, gram) entries of the paper's space analysis,
// nearly two thirds of the file:
//
//	grams    string blob               dictionary in id order
//	sizes    u32 count + count × u32   |q(key)| per ref
//	sigs     ragged u32                sorted gram ids per ref
//	sigfloor u32
//
// and version 3 also a `postings` section (ragged i32, gram id →
// ascending refs) between grams and sizes. The decoder checks these
// sections where they lie and keeps none of them: the postings' count
// and length are bounds-checked and skipped, whatever they say, and the
// rest must hold join.CheckShardSection's invariants (a duplicate-free
// dictionary, one size per member, signatures strictly ascending within
// the dictionary and as long as their sizes), so a corrupt v3/v4 image
// is rejected as it always was, and a sound one loads to the index a
// version-6 image of the same content loads to. Versions 3 to 5 store
// their sections fixed-width, as version 5 above.
//
// Versions 1 and 2 have the sections of version 3 under a different
// shard layout: they replicated a tuple into every shard of its
// prefix-filter signature, where later versions hash-partition the
// store (a tuple is a member of shard ShardOf(key, shards) and of no
// other). v1/v2 snapshots load like any other: their store section is
// decoded and built from, and their shard sections, which hold no
// member refs of this layout, are skipped (the file checksum still
// covers them) with nothing to check the build against. Version 1
// differs from 2 only in the profile slot: it carried a reserved u32
// (always 0) and no profile bytes, and loads with the profile read as
// "" — such snapshots predate normalization profiles, so their keys
// were indexed verbatim and "" is exactly what built them.
//
// Whatever version was read, the next checkpoint writes version 6.
package store

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"iter"
	"math"
	"os"
	"path/filepath"
	"sync"
	"unsafe"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/vfs"
)

// SnapshotVersion is the current snapshot format version. Decoders
// accept versions 1..SnapshotVersion and reject anything else with a
// descriptive error; the format owns its compatibility story explicitly
// rather than by accident.
const SnapshotVersion = 6

var snapMagic = [8]byte{'A', 'L', 'S', 'N', 'A', 'P', 0x01, '\n'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt tags snapshot and WAL decoding failures: the bytes do not
// form a well-formed artifact (truncation, bit flips, hostile input).
// Wrapped errors carry the specific finding.
var ErrCorrupt = fmt.Errorf("store: corrupt")

// writer streams the encoding while folding every byte into the CRC.
// Bytes are staged in a fixed-size buffer and emitted, when it fills,
// as one Write + one CRC fold: the encoding cost is per stageful, not
// per word, and the stage does not grow with the index.
type writer struct {
	w     io.Writer
	crc   hash.Hash32
	err   error
	stage []byte // staged, not yet written; fixed capacity
}

// writers recycles the stage across checkpoints, export streams and
// digests.
var writers = sync.Pool{New: func() any {
	return &writer{crc: crc32.New(castagnoli), stage: make([]byte, 0, 32<<10)}
}}

// newWriter checks a writer out of the pool; release returns it.
func newWriter(w io.Writer) *writer {
	e := writers.Get().(*writer)
	e.w, e.err, e.stage = w, nil, e.stage[:0]
	e.crc.Reset()
	return e
}

func (e *writer) release() {
	e.w = nil
	writers.Put(e)
}

// flush writes out what is staged.
func (e *writer) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.stage)
		e.crc.Write(e.stage)
	}
	e.stage = e.stage[:0]
}

// sum returns the CRC of everything written since the last crc.Reset.
func (e *writer) sum() uint32 {
	e.flush()
	return e.crc.Sum32()
}

// room returns the next n bytes of the stage, to be filled in.
func (e *writer) room(n int) []byte {
	if cap(e.stage)-len(e.stage) < n {
		e.flush()
	}
	e.stage = e.stage[:len(e.stage)+n]
	return e.stage[len(e.stage)-n:]
}

func (e *writer) u32(v uint32) { binary.LittleEndian.PutUint32(e.room(4), v) }
func (e *writer) u64(v uint64) { binary.LittleEndian.PutUint64(e.room(8), v) }

// uvarint and varint write one LEB128 word, giving back the room a
// short one leaves.
func (e *writer) uvarint(v uint64) {
	if v < 0x80 && len(e.stage) < cap(e.stage) {
		e.stage = append(e.stage, byte(v)) // the common one-byte word
		return
	}
	b := e.room(binary.MaxVarintLen64)
	e.stage = e.stage[:len(e.stage)-len(b)+binary.PutUvarint(b, v)]
}

func (e *writer) varint(v int64) { e.uvarint(uint64(v<<1) ^ uint64(v>>63)) }

func (e *writer) str(s string) {
	for len(s) > 0 {
		if len(e.stage) == cap(e.stage) {
			e.flush()
		}
		n := copy(e.stage[len(e.stage):cap(e.stage)], s)
		e.stage = e.stage[:len(e.stage)+n]
		s = s[n:]
	}
}

// stringBlob writes count, offsets and concatenated bytes of the n
// strings of ss, walking them twice, so that strings held inside other
// records need not be gathered into a slice first.
func (e *writer) stringBlob(n int, ss iter.Seq[string]) {
	e.u32(uint32(n))
	total := 0
	for s := range ss {
		e.u32(uint32(total))
		total += len(s)
	}
	e.u32(uint32(total))
	for s := range ss {
		e.str(s)
	}
}

// words writes vs back to back, a stageful at a time.
func (e *writer) words(vs []uint32) {
	for len(vs) > 0 {
		n := min(len(vs), max(1, (cap(e.stage)-len(e.stage))/4))
		b := e.room(4 * n)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		vs = vs[n:]
	}
}

func (e *writer) u32slice(vs []uint32) {
	e.u32(uint32(len(vs)))
	e.words(vs)
}

// WriteSnapshot encodes the view onto w in the current snapshot format,
// including the trailing CRC.
func WriteSnapshot(w io.Writer, v *join.SnapshotView) error {
	n := v.Len()
	if n > math.MaxUint32 {
		return fmt.Errorf("store: snapshot of %d tuples exceeds the format's uint32 ref space", n)
	}
	if len(v.Cfg.Profile) > maxProfileLen {
		return fmt.Errorf("store: normalization profile name %d bytes long, cap is %d", len(v.Cfg.Profile), maxProfileLen)
	}
	e := newWriter(w)
	defer e.release()
	writeHeader(e, v.Cfg, v.NShard, n)
	encodeColumns(e, v.Store(), v.Shards)
	e.u32(e.sum())
	e.flush()
	if e.err != nil {
		return fmt.Errorf("store: writing snapshot: %w", e.err)
	}
	return nil
}

// writeHeader writes the current version's header for a store of n
// tuples in the given number of shards.
func writeHeader(e *writer, cfg join.Config, shards, n int) {
	e.str(string(snapMagic[:]))
	e.u32(SnapshotVersion)
	e.u32(uint32(cfg.Q))
	e.u32(uint32(cfg.Measure))
	e.u32(uint32(shards))
	e.u64(math.Float64bits(cfg.Theta))
	e.u32(uint32(n))
	e.u32(uint32(len(cfg.Profile)))
	e.str(cfg.Profile)
}

// encodeColumns writes the version-6 sections: the id, key and attr
// columns of the tuple store, each one walk of it, then each shard's
// member refs.
func encodeColumns(e *writer, store iter.Seq[relation.Tuple], shards [][]uint32) {
	prev := int64(-1)
	for t := range store {
		id := int64(t.ID)
		e.varint(id - prev - 1)
		prev = id
	}
	for t := range store {
		e.uvarint(uint64(len(t.Key)))
	}
	for t := range store {
		e.str(t.Key)
	}
	for t := range store {
		e.uvarint(uint64(len(t.Attrs)))
	}
	for t := range store {
		for _, a := range t.Attrs {
			e.uvarint(uint64(len(a)))
		}
	}
	for t := range store {
		for _, a := range t.Attrs {
			e.str(a)
		}
	}
	for _, members := range shards {
		e.uvarint(uint64(len(members)))
		prev := int64(-1)
		for _, g := range members {
			e.varint(int64(g) - prev - 1)
			prev = int64(g)
		}
	}
}

// reader is a bounds-checked cursor over an in-memory artifact with a
// sticky error: every accessor validates against the remaining bytes
// before allocating or slicing, so hostile lengths cannot panic or
// balloon memory beyond the input's own size.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) i64() int64   { return int64(r.u64()) }

// left is the number of bytes not yet read.
func (r *reader) left() int { return len(r.data) - r.off }

// uvarint reads one LEB128 word; a word running past ten bytes or
// 64 bits, or past the input, fails the read.
func (r *reader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.data[r.off:])
	switch {
	case k == 0:
		r.fail("%s varint at offset %d runs past the end of the input", what, r.off)
	case k < 0:
		r.fail("%s varint at offset %d runs over %d bytes or 64 bits", what, r.off, binary.MaxVarintLen64)
	}
	if k <= 0 {
		return 0
	}
	r.off += k
	return v
}

// varint reads one zigzag-coded LEB128 word.
func (r *reader) varint(what string) int64 { return unzigzag(r.uvarint(what)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// column is a cursor over LEB128 words a bounds-checked pass has
// already walked: it decodes without checks.
type column struct {
	b []byte
	i int
}

func (c *column) next() uint64 {
	if b := c.b[c.i]; b < 0x80 {
		c.i++
		return uint64(b)
	}
	return c.long()
}

// long decodes a multi-byte word; kept out of next so that next inlines.
func (c *column) long() uint64 {
	v, k := binary.Uvarint(c.b[c.i:])
	c.i += k
	return v
}

// lengths reads a column of n uvarint lengths and returns their total,
// which must fit in the input that follows the column: every length
// counts bytes (or, for attr counts, length words) still to come. A
// single length past uint32 fails the read.
func (r *reader) lengths(n int, what string) int {
	total := 0
	for i := 0; i < n && r.err == nil; i++ {
		var l uint64
		if r.off < len(r.data) && r.data[r.off] < 0x80 {
			l = uint64(r.data[r.off]) // the common one-byte word, inline
			r.off++
		} else if l = r.uvarint(what); l > math.MaxUint32 {
			r.fail("%s %d at entry %d is past uint32", what, l, i)
			return 0
		}
		// The column's bytes precede what it counts, so the total can be
		// held to the remaining input at every step.
		if total += int(l); total > r.left() {
			r.fail("%s column totals %d at entry %d, only %d bytes remain", what, total, i, r.left())
			return 0
		}
	}
	return total
}

// offsets reads a (count+1)-entry ascending offset table bounded by
// limitPerElem × remaining input, the shared spine of blobs and ragged
// arrays.
func (r *reader) offsets(count int) []uint32 {
	if r.err != nil {
		return nil
	}
	raw := r.take((count + 1) * 4)
	if raw == nil {
		return nil
	}
	offs := make([]uint32, count+1)
	prev := uint32(0)
	for i := range offs {
		offs[i] = binary.LittleEndian.Uint32(raw[i*4:])
		if offs[i] < prev {
			r.fail("offset table not ascending at entry %d", i)
			return nil
		}
		prev = offs[i]
	}
	if offs[0] != 0 {
		r.fail("offset table starts at %d, want 0", offs[0])
		return nil
	}
	return offs
}

func (r *reader) count(what string) int {
	c := r.u32()
	if r.err != nil {
		return 0
	}
	// A count can never exceed the remaining bytes (every element costs
	// at least one encoded byte downstream of its offset table).
	if int64(c) > int64(len(r.data)-r.off) {
		r.fail("%s count %d exceeds remaining %d bytes", what, c, len(r.data)-r.off)
		return 0
	}
	return int(c)
}

func (r *reader) stringBlob(what string) []string {
	n := r.count(what)
	offs := r.offsets(n)
	if r.err != nil {
		return nil
	}
	blob := r.take(int(offs[n]))
	if r.err != nil {
		return nil
	}
	// One allocation for the whole blob; substrings share its backing.
	s := string(blob)
	out := make([]string, n)
	for i := range out {
		out[i] = s[offs[i]:offs[i+1]]
	}
	return out
}

func (r *reader) u32slice(what string) []uint32 {
	n := r.count(what)
	raw := r.take(n * 4)
	if r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[i*4:])
	}
	return out
}

// skipRagged steps over a ragged array of 4-byte words without
// materialising it: the count and the closing offset are bounds-checked
// against the remaining input like any other section.
func (r *reader) skipRagged(what string) {
	n := r.count(what)
	if offs := r.take((n + 1) * 4); offs != nil {
		r.take(4 * int(binary.LittleEndian.Uint32(offs[4*n:])))
	}
}

// raggedWords is a ragged array of 4-byte words read in place: at
// decodes one list into a buffer it reuses.
type raggedWords struct {
	n    int
	offs []uint32
	raw  []byte
	buf  []uint32
}

// at returns list i, valid until the next call. Empty lists are nil:
// the image does not distinguish them.
func (rw *raggedWords) at(i int) []uint32 {
	lo, hi := rw.offs[i], rw.offs[i+1]
	if lo == hi {
		return nil
	}
	rw.buf = rw.buf[:0]
	for o := lo; o < hi; o++ {
		rw.buf = append(rw.buf, binary.LittleEndian.Uint32(rw.raw[4*o:]))
	}
	return rw.buf
}

// raggedInPlace bounds-checks a ragged array of 4-byte words like
// raggedU32, without materialising it.
func (r *reader) raggedInPlace(what string) *raggedWords {
	n := r.count(what)
	offs := r.offsets(n)
	if r.err != nil {
		return nil
	}
	raw := r.take(4 * int(offs[n]))
	if r.err != nil {
		return nil
	}
	return &raggedWords{n: n, offs: offs, raw: raw}
}

// snapHeaderMax is the longest snapshot header: magic, the fixed words
// through the profile slot, and the longest profile name.
const snapHeaderMax = len(snapMagic) + 4*4 + 8 + 4 + 4 + maxProfileLen

// readHeader decodes a snapshot header from the start of an image:
// magic, format version, the compatibility tuple, the tuple count and
// the profile slot. It is the one place the version range and the
// profile-slot rule live — version 1 carried a reserved word there and
// no profile bytes (the profile reads as ""), version 2 on a length and
// the name. DecodeSnapshot and PeekMeta both read through it.
func readHeader(r *reader) (version uint32, m Meta, tuples int, err error) {
	if magic := r.take(len(snapMagic)); r.err == nil && string(magic) != string(snapMagic[:]) {
		return 0, m, 0, fmt.Errorf("%w: snapshot magic mismatch (not an adaptivelink snapshot?)", ErrCorrupt)
	}
	version = r.u32()
	if r.err == nil && (version < 1 || version > SnapshotVersion) {
		return 0, m, 0, fmt.Errorf("store: snapshot format version %d, this build reads versions 1..%d", version, SnapshotVersion)
	}
	m.Q = int(r.u32())
	// The wire measure id is the enum value; unknown ids flow through and
	// are rejected by join.Config.Validate with its own descriptive error.
	m.Measure = simfn.TokenMeasure(r.u32())
	m.Shards = int(r.u32())
	m.Theta = r.f64()
	tuples = int(r.u32())
	plen := r.u32() // v1: reserved (ignored); v2+: profile length
	if version >= 2 {
		if r.err == nil && plen > maxProfileLen {
			r.fail("profile name length %d over the %d cap", plen, maxProfileLen)
		}
		m.Profile = string(r.take(int(plen)))
	}
	return version, m, tuples, r.err
}

// DecodeSnapshot parses a complete snapshot file image, verifying the
// CRC and every structural bound, and builds the index it stores:
// join.LoadShardedRefIndex over the image's tuple store, which checks
// the stored member refs against that build (the cross-structure
// invariants the codec cannot see). A version-6 image's store is read
// where it lies: the build copies each tuple's bytes straight from the
// image into its home shard, and the index keeps nothing of data. A
// version 1 or 2 image has no member refs, so nothing is checked.
func DecodeSnapshot(data []byte) (*join.ShardedRefIndex, error) {
	m, rows, members, err := decodeImage(data)
	if err != nil {
		return nil, err
	}
	return join.LoadShardedRefIndex(metaConfig(m), m.Shards, rows, members)
}

// decodeImage verifies a snapshot image and decodes what a load builds
// from: its compatibility tuple, its tuple store and, from version 3 on,
// each shard's member refs.
func decodeImage(data []byte) (Meta, join.Rows, [][]uint32, error) {
	if len(data) < len(snapMagic)+4 {
		return Meta{}, nil, nil, fmt.Errorf("%w: snapshot of %d bytes is shorter than magic+checksum", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	r := &reader{data: body}
	version, m, n, err := readHeader(r)
	if err != nil {
		return m, nil, nil, err
	}
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.Checksum(body, castagnoli); got != want {
		return m, nil, nil, fmt.Errorf("%w: snapshot checksum %08x, file claims %08x (truncated or bit-flipped)", ErrCorrupt, got, want)
	}
	if err := checkShardCount(r, m.Shards); err != nil {
		return m, nil, nil, err
	}
	if version == SnapshotVersion {
		rows, members, err := decodeColumns(r, m.Shards, n)
		return m, rows, members, err
	}
	rows, members, err := decodeFixedWidth(r, version, m.Shards, n)
	return m, rows, members, err
}

// minColumnTuple is the fewest bytes a version-6 tuple costs: its id
// delta, its key length and its attr count, one byte each.
const minColumnTuple = 3

// checkShardCount holds the header's shard count to what the input can
// carry: every shard section costs at least a byte.
func checkShardCount(r *reader, shards int) error {
	if shards < 1 || int64(shards) > int64(r.left()) {
		return fmt.Errorf("%w: shard count %d implausible for %d remaining bytes", ErrCorrupt, shards, r.left())
	}
	return nil
}

// decodeColumns decodes the sections of a version-6 image of n tuples
// in the given number of shards. The first pass walks every column, checking every count and length
// total against the input that remains, and allocates nothing; the
// second, over bytes the first has vouched for, notes where each
// tuple's fields lie (columnRows) and decodes the member refs into one
// arena.
func decodeColumns(r *reader, shards, n int) (join.Rows, [][]uint32, error) {
	if int64(n)*minColumnTuple > int64(r.left()) {
		return nil, nil, fmt.Errorf("%w: tuple count %d needs %d bytes, %d remain", ErrCorrupt, n, int64(n)*minColumnTuple, r.left())
	}
	idsAt := r.off
	for i := 0; i < n && r.err == nil; i++ {
		if r.off < len(r.data) && r.data[r.off] < 0x80 {
			r.off++ // the common one-byte word
		} else {
			r.uvarint("tuple id")
		}
	}
	keyLensAt := r.off
	keyBytes := r.lengths(n, "key length")
	keysAt := r.off
	r.take(keyBytes)
	attrCountsAt := r.off
	attrs := r.lengths(n, "attr count")
	attrLensAt := r.off
	attrBytes := r.lengths(attrs, "attr length")
	attrsAt := r.off
	r.take(attrBytes)
	if r.err != nil {
		return nil, nil, r.err
	}
	if err := checkShardCount(r, shards); err != nil {
		return nil, nil, err
	}
	shardsAt, members := r.off, 0
	for i := 0; i < shards && r.err == nil; i++ {
		c := r.uvarint("shard member count")
		if r.err == nil && (c > uint64(n) || c > uint64(r.left())) {
			r.fail("shard %d holds %d members, the store %d tuples and %d bytes remain", i, c, n, r.left())
		}
		prev := int64(-1)
		for j := uint64(0); j < c && r.err == nil; j++ {
			g := prev + 1 + r.varint("global ref")
			if r.err == nil && (g < 0 || g > math.MaxUint32) {
				r.fail("shard %d global ref %d outside the uint32 ref space", i, g)
			}
			prev = g
		}
		members += int(c)
	}
	if r.err != nil {
		return nil, nil, fmt.Errorf("shard section: %w", r.err)
	}
	if r.off != len(r.data) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after the last shard", ErrCorrupt, r.left())
	}

	// One walk notes each tuple's id and where its fields start, from
	// four cursors.
	at := make([]rowAt, n+1)
	ids, keyLens := column{b: r.data, i: idsAt}, column{b: r.data, i: keyLensAt}
	counts, lens := column{b: r.data, i: attrCountsAt}, column{b: r.data, i: attrLensAt}
	prev, key, attr := int64(-1), keysAt, attrsAt
	for i := range n {
		prev += 1 + unzigzag(ids.next())
		at[i] = rowAt{id: prev, key: key, lens: lens.i, attrs: attr}
		key += int(keyLens.next())
		for range counts.next() {
			attr += int(lens.next())
		}
	}
	at[n] = rowAt{key: key, lens: lens.i, attrs: attr}

	globals, lists := make([]uint32, members), make([][]uint32, shards)
	col := column{b: r.data, i: shardsAt}
	for i := range lists {
		c := int(col.next())
		g := globals[:c:c]
		prev := int64(-1)
		for j := range g {
			prev += 1 + unzigzag(col.next())
			g[j] = uint32(prev)
		}
		lists[i], globals = g, globals[c:]
	}
	return &columnRows{data: r.data, at: at}, lists, nil
}

// columnRows is a version-6 image's tuple store as a bulk build's rows,
// read where it lies: the strings a row returns are views of the image,
// which live only until the build has copied them into its shards.
type columnRows struct {
	data []byte
	at   []rowAt // one per tuple, then one holding the columns' ends
}

// rowAt is one tuple of a version-6 image: its id, and where its key,
// its attr lengths and its attr bytes start in the image; the next
// tuple's starts end them.
type rowAt struct {
	id               int64
	key, lens, attrs int
}

func (c *columnRows) Len() int { return len(c.at) - 1 }

func (c *columnRows) Row(ref int, buf *[]string) relation.Tuple {
	a, end := &c.at[ref], &c.at[ref+1]
	t := relation.Tuple{ID: int(a.id), Key: c.str(a.key, end.key)}
	if a.lens == end.lens {
		return t // no attrs: Attrs stays nil
	}
	attrs, off := (*buf)[:0], a.attrs
	for lens := (column{b: c.data, i: a.lens}); lens.i < end.lens; {
		l := int(lens.next())
		attrs = append(attrs, c.str(off, off+l))
		off += l
	}
	*buf, t.Attrs = attrs, attrs
	return t
}

// str is the image's bytes [lo, hi) as a string, without a copy.
func (c *columnRows) str(lo, hi int) string {
	return unsafe.String(unsafe.SliceData(c.data[lo:hi]), hi-lo)
}

// decodeFixedWidth decodes the sections of a version 1 to 5 image of n
// tuples in the given number of shards, over the fixed-width layout
// those versions stored: the store as a []relation.Tuple, and from
// version 3 on each shard's member refs.
func decodeFixedWidth(r *reader, version uint32, shards, n int) (join.Rows, [][]uint32, error) {
	if n > 0 && int64(n)*8 > int64(r.left()) {
		r.fail("tuple count %d exceeds remaining bytes", n)
		return nil, nil, r.err
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = r.i64()
	}
	keys := r.stringBlob("key")
	attrOffs := r.offsets(n)
	flatAttrs := r.stringBlob("attr")
	if r.err != nil {
		return nil, nil, r.err
	}
	if len(keys) != n {
		return nil, nil, fmt.Errorf("%w: %d keys for %d tuples", ErrCorrupt, len(keys), n)
	}
	if int(attrOffs[n]) > len(flatAttrs) {
		return nil, nil, fmt.Errorf("%w: attr offsets reach %d of %d attrs", ErrCorrupt, attrOffs[n], len(flatAttrs))
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{ID: int(ids[i]), Key: keys[i]}
		if attrOffs[i] < attrOffs[i+1] {
			tuples[i].Attrs = flatAttrs[attrOffs[i]:attrOffs[i+1]:attrOffs[i+1]]
		}
	}
	if err := checkShardCount(r, shards); err != nil {
		return nil, nil, err
	}
	if version < 3 {
		// Prefix-replicated shard sections: nothing a load can check
		// (see the format comment). The image carries the store alone.
		return join.Tuples(tuples), nil, nil
	}
	members := make([][]uint32, shards)
	for i := range members {
		members[i] = r.u32slice("global")
		if version < 5 {
			if err := skipQGramSection(r, version, len(members[i])); err != nil {
				return nil, nil, fmt.Errorf("%w: shard %d: %w", ErrCorrupt, i, err)
			}
		}
		if r.err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", i, r.err)
		}
	}
	if r.off != len(r.data) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after the last shard", ErrCorrupt, len(r.data)-r.off)
	}
	return join.Tuples(tuples), members, nil
}

// skipQGramSection steps over the q-gram section a version 3 or 4
// image stores after a shard's globals, checking it where it lies: an
// index derives a shard's q-gram structures from its keys when the
// shard is first probed approximately, so nothing of it is kept. A
// bounds failure is left on r; an invariant failure is returned.
func skipQGramSection(r *reader, version uint32, members int) error {
	grams := r.stringBlob("gram")
	if version == 3 {
		// Version 3 also stored the postings table: bounds-checked and
		// skipped, whatever it says.
		r.skipRagged("posting")
	}
	sizes := r.u32slice("size")
	sigs := r.raggedInPlace("signature")
	floor := int(r.u32())
	if r.err != nil {
		return nil
	}
	return join.CheckShardSection(members, grams, sizes, floor, sigs.n, sigs.at)
}

// ReadSnapshotFile loads a snapshot file: DecodeSnapshot of its bytes.
func ReadSnapshotFile(path string) (*join.ShardedRefIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ix, nil
}

// WriteSnapshotFileFS writes the snapshot atomically through fsys:
// encode to a temporary file in the same directory, fsync, rename over
// the target, fsync the directory. A crash mid-write leaves the previous
// snapshot (or none) intact, never a torn file under the live name; the
// final directory fsync makes the rename itself durable — without it,
// power loss after a "successful" checkpoint could resurrect the old
// snapshot, or worse, a directory entry pointing at nothing.
func WriteSnapshotFileFS(fsys vfs.FS, path string, v *join.SnapshotView) error {
	tmp, err := writeSnapshotTemp(fsys, path, v)
	if err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// writeSnapshotTemp encodes the snapshot into a new temporary file
// beside path, fsyncs and closes it, and returns its name. A failed
// write removes the file.
func writeSnapshotTemp(fsys vfs.FS, path string, v *join.SnapshotView) (name string, err error) {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return "", err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()
	if err = WriteSnapshot(tmp, v); err != nil {
		return "", err
	}
	if err = tmp.Sync(); err != nil {
		return "", err
	}
	if err = tmp.Close(); err != nil {
		return "", err
	}
	return tmp.Name(), nil
}
