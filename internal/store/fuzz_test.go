package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"reflect"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/vfs"
)

// fuzzSeedSnapshot is a small valid snapshot image to seed mutation
// from (the interesting bugs live one bit flip away from valid).
func fuzzSeedSnapshot(f *testing.F) []byte {
	ix, err := join.BuildShardedRefIndex(join.Defaults(), 2, []relation.Tuple{
		{ID: 1, Key: "john smith", Attrs: []string{"a"}},
		{ID: 2, Key: "maria garcia", Attrs: []string{"b", "c"}},
		{ID: 3, Key: ""},
	})
	if err != nil {
		f.Fatal(err)
	}
	v, err := ix.ExportSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, v); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotDecode hammers the snapshot loader with hostile bytes:
// whatever the input, it must return an index or an error — never
// panic, never allocate unboundedly — whether the decoder's bounds
// checks or the load's cross-structure checks refuse it. Each input is
// decoded as given and again with its checksum re-sealed over the rest,
// so mutations reach the section decoders behind the CRC instead of
// stopping at it.
func FuzzSnapshotDecode(f *testing.F) {
	seed := fuzzSeedSnapshot(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(seed[:9])
	f.Add([]byte{})
	f.Add([]byte("ALSNAP\x01\n"))
	// Genuine images of the older layouts the loader still reads:
	// version 3 (stored postings, skipped), version 2 (store only) and
	// version 4 (stored q-gram sections, checked and skipped) — and the
	// current image of the version-4 fixture's content; then the
	// version-5 fixture (the last fixed-width layout) and its current
	// re-encoding.
	for _, fixture := range []string{v3Fixture, v2Fixture, v4Fixture} {
		f.Add(readFile(f, fixture))
	}
	f.Add(currentImage(f, v4Fixture))
	f.Add(readFile(f, v5Fixture))
	f.Add(currentImage(f, v5Fixture))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeSnapshot(data)
		if len(data) >= 4 {
			DecodeSnapshot(fixCRC(bytes.Clone(data)))
		}
	})
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// currentImage re-encodes a snapshot file in the current version.
func currentImage(tb testing.TB, path string) []byte {
	tb.Helper()
	ix, err := ReadSnapshotFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	v, err := ix.ExportSnapshot()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzContent reads image content out of arbitrary bytes: a shard count
// and a tuple count n, then the tuples — an id (the extremes of int64, a
// small negative, or eight raw bytes, by a selector byte), a key and 0
// to 3 attrs, possibly empty — and then, per shard, up to n arbitrary
// global refs. Bytes past the input read as zeros. Nothing is
// validated: the codec, not the load, is under test.
func fuzzContent(data []byte) content {
	next := func(k int) []byte {
		k = min(k, len(data))
		b := data[:k]
		data = data[k:]
		return b
	}
	byteOf := func() int {
		if b := next(1); len(b) == 1 {
			return int(b[0])
		}
		return 0
	}
	word := func(k int) uint64 {
		var w [8]byte
		copy(w[:], next(k))
		return binary.LittleEndian.Uint64(w[:])
	}
	str := func() string { return string(next(byteOf() % 24)) }
	c := content{cfg: join.Defaults(), nshard: 1 + byteOf()%4}
	n := byteOf() % 65
	for range n {
		var id int64
		switch sel := byteOf(); sel % 4 {
		case 0:
			id = math.MinInt64
		case 1:
			id = math.MaxInt64
		case 2:
			id = -int64(byteOf())
		default:
			id = int64(word(8))
		}
		tp := relation.Tuple{ID: int(id), Key: str()}
		for range byteOf() % 4 {
			tp.Attrs = append(tp.Attrs, str())
		}
		c.tuples = append(c.tuples, tp)
	}
	c.shards = make([][]uint32, c.nshard)
	for i := range c.shards {
		for range byteOf() % (n + 1) {
			c.shards[i] = append(c.shards[i], uint32(word(4)))
		}
	}
	return c
}

// sameContent reports whether decoded rows and member refs are c's
// tuples and member refs, a nil and an empty list counting as equal.
// Both are read in order, as a load reads them.
func sameContent(c content, rows join.Rows, members join.Members) bool {
	if rows.Len() != len(c.tuples) || members.Shards() != len(c.shards) {
		return false
	}
	next := rows.Cursor()
	for _, t := range c.tuples {
		u := next()
		if t.ID != u.ID || t.Key != u.Key || len(t.Attrs) != len(u.Attrs) {
			return false
		}
		for j := range t.Attrs {
			if t.Attrs[j] != u.Attrs[j] {
				return false
			}
		}
	}
	for _, refs := range c.shards {
		if members.List() != len(refs) {
			return false
		}
		for _, g := range refs {
			if members.Ref() != g {
				return false
			}
		}
	}
	return true
}

// FuzzSnapshotRoundTrip holds the codec to its inverse: any content —
// extreme, negative and repeated ids, empty keys and attrs, refs in any
// order up to the top of the uint32 space — written as an image decodes
// to the same tuples and member refs. The same tuples bulk-built into
// an index then round-trip through WriteSnapshot and DecodeSnapshot to
// the same view and content digest, and still do once every byte of
// the image has been overwritten: the load keeps nothing of it.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add([]byte{})
	// Two shards of three tuples: ids MinInt64, MaxInt64 and −9, the
	// first two with an empty key, attrs "", "ab" and none; refs
	// MaxUint32 then 0, and 2.
	f.Add([]byte{1, 3,
		0, 0, 2, 0, 2, 'a', 'b',
		1, 0, 0,
		2, 9, 5, 'h', 'e', 'l', 'l', 'o', 0,
		2, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0,
		1, 2, 0, 0, 0})
	// Three shards of three tuples with raw, descending ids (1<<60, 7,
	// 1): "john smith" with attr "a", a two-byte rune, an empty key;
	// refs 0 1 2, none, and 5.
	f.Add([]byte("\x02\x03" +
		"\x03\x00\x00\x00\x00\x00\x00\x00\x10\x0ajohn smith\x01\x01a" +
		"\x03\x07\x00\x00\x00\x00\x00\x00\x00\x03\xc3\xa9x\x00" +
		"\x03\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x03\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00\x01\x05\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzContent(data)
		_, rows, members, err := decodeImage(src.image())
		if err != nil {
			t.Fatalf("decoding written content: %v", err)
		}
		if !sameContent(src, rows, members) {
			t.Fatalf("round trip changed the content %+v", src)
		}

		ix, err := join.BuildShardedRefIndex(src.cfg, src.nshard, src.tuples)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ix.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, want); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		loaded, err := DecodeSnapshot(img)
		if err != nil {
			t.Fatalf("loading a written index: %v", err)
		}
		for pass := range 2 {
			v, err := loaded.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !sameView(v, want) || !reflect.DeepEqual(DigestView(v), DigestView(want)) {
				t.Fatalf("pass %d: the loaded index's view or digest differs from the written one's", pass)
			}
			overwrite(img)
		}
	})
}

// overwrite writes over every byte of an image.
func overwrite(img []byte) {
	for i := range img {
		img[i] = ^img[i]
	}
}

// fuzzSeedWAL is a small valid WAL image (header + two frames).
func fuzzSeedWAL(f *testing.F) []byte {
	dir := f.TempDir()
	w, _, err := OpenWALFS(vfs.OS, dir+"/"+WALFile, Meta{Q: 3, Theta: 0.75, Shards: 2}, SyncNone)
	if err != nil {
		f.Fatal(err)
	}
	w.Append([]relation.Tuple{{ID: 1, Key: "john smith", Attrs: []string{"a"}}})
	w.Append([]relation.Tuple{{ID: 2, Key: ""}})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/" + WALFile)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzWALReplay hammers the WAL decoder with hostile bytes: it must
// return batches or an error — never panic — and the reported good
// offset must always sit on a frame boundary within the input.
func FuzzWALReplay(f *testing.F) {
	seed := fuzzSeedWAL(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(seed[:walFixedHeaderSize])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := decodeWALBytes(data)
		if err != nil {
			return
		}
		if dec.good < walFixedHeaderSize || dec.good > len(data) {
			t.Fatalf("good offset %d outside header..len range of %d-byte input", dec.good, len(data))
		}
		if !dec.torn && dec.good != len(data) {
			t.Fatalf("not torn, but good offset %d != len %d", dec.good, len(data))
		}
	})
}
