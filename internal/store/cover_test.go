package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/vfs"
)

// fixCRC recomputes the trailing CRC-32C of a mutated snapshot image.
// DecodeSnapshot verifies the checksum before parsing a single section,
// so structural-validation tests must re-seal their corruption or they
// only ever exercise the checksum gate.
func fixCRC(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
	return b
}

// TestCreateDirLifecycle drives the bulk-load persistence primitive end
// to end: Create writes the snapshot directly and opens a fresh log,
// Append logs batches, Open replays them onto the identical index, and
// Checkpoint subsumes the log.
func TestCreateDirLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	ix := buildIndex(t, 2, 40)
	d, err := Create(vfs.OS, dir, ix, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if d.Path() != dir {
		t.Fatalf("Path = %q, want %q", d.Path(), dir)
	}
	if d.WALRecords() != 0 || d.LastSnapshot().IsZero() {
		t.Fatalf("fresh dir: %d records, last snapshot %v", d.WALRecords(), d.LastSnapshot())
	}
	batch := []relation.Tuple{{ID: 5000, Key: "appended after bulk", Attrs: []string{"new"}}}
	if err := d.Append(batch); err != nil {
		t.Fatal(err)
	}
	ix.Upsert(batch)
	if d.WALRecords() != 1 {
		t.Fatalf("WALRecords = %d, want 1", d.WALRecords())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Create refuses a directory that already holds an index.
	if _, err := Create(vfs.OS, dir, ix, SyncAlways); err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("Create over occupied dir = %v, want refusal", err)
	}

	m, err := PeekMeta(dir)
	if err != nil || m == nil {
		t.Fatalf("PeekMeta = %v, %v", m, err)
	}
	d2, got, rec, err := Open(vfs.OS, dir, *m, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rec.WALRecords != 1 || rec.TornTail {
		t.Fatalf("recovery = %+v, want 1 clean replayed batch", rec)
	}
	assertSameIndex(t, ix, got)

	// Checkpoint subsumes the log...
	if err := d2.Checkpoint(got); err != nil {
		t.Fatal(err)
	}
	if d2.WALRecords() != 0 || d2.LastSnapshot().IsZero() {
		t.Fatalf("post-checkpoint: %d records", d2.WALRecords())
	}
	// ...and refuses an index bound to a different configuration.
	cfg := join.Defaults()
	cfg.Q++
	other, err := join.BuildShardedRefIndex(cfg, 2, testTuples(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Checkpoint(other); err == nil || !strings.Contains(err.Error(), "configuration mismatch") {
		t.Fatalf("Checkpoint with mismatched index = %v", err)
	}
}

func TestCreateDirErrors(t *testing.T) {
	ix := buildIndex(t, 1, 5)
	root := t.TempDir()

	// Parent path is a plain file: the directory cannot be created.
	file := filepath.Join(root, "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(vfs.OS, filepath.Join(file, "sub"), ix, SyncAlways); err == nil {
		t.Fatal("Create under a plain file succeeded")
	}

	// An unreadable artifact propagates PeekMeta's error rather than
	// being silently overwritten.
	bad := filepath.Join(root, "bad")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, SnapshotFile), []byte("shrt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(vfs.OS, bad, ix, SyncAlways); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Create over corrupt snapshot = %v, want ErrCorrupt", err)
	}
}

func TestOpenErrors(t *testing.T) {
	// Fresh directory with an unusable configuration: the index
	// constructor's validation error surfaces.
	if _, _, _, err := Open(vfs.OS, filepath.Join(t.TempDir(), "fresh"), Meta{}, SyncAlways); err == nil {
		t.Fatal("Open with a zero Meta succeeded")
	}

	dir := filepath.Join(t.TempDir(), "ix")
	d, err := Create(vfs.OS, dir, buildIndex(t, 2, 10), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := PeekMeta(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Stored configuration differs from the requested one.
	bad := *m
	bad.Q++
	if _, _, _, err := Open(vfs.OS, dir, bad, SyncAlways); err == nil || !strings.Contains(err.Error(), "configuration mismatch") {
		t.Fatalf("Open with mismatched meta = %v", err)
	}

	// A damaged snapshot fails Open outright; no partial index.
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), []byte("garbage, not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(vfs.OS, dir, *m, SyncAlways); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over damaged snapshot = %v, want ErrCorrupt", err)
	}
}

// TestPeekMetaWAL covers the snapshot-less half of PeekMeta: a WAL-only
// directory (a crash before the first checkpoint) still reveals its
// configuration, an empty log file counts as absent, and garbage is an
// error.
func TestPeekMetaWAL(t *testing.T) {
	empty := t.TempDir()
	if m, err := PeekMeta(empty); m != nil || err != nil {
		t.Fatalf("PeekMeta(empty dir) = %v, %v", m, err)
	}

	meta := MetaOf(buildIndex(t, 2, 5))
	dir := t.TempDir()
	w, replay, err := OpenWALFS(vfs.OS, filepath.Join(dir, WALFile), meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 0 {
		t.Fatalf("fresh WAL replay = %+v", replay)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := PeekMeta(dir)
	if err != nil || m == nil || *m != meta {
		t.Fatalf("PeekMeta(WAL-only dir) = %+v, %v, want %+v", m, err, meta)
	}

	zero := t.TempDir()
	if err := os.WriteFile(filepath.Join(zero, WALFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := PeekMeta(zero); m != nil || err != nil {
		t.Fatalf("PeekMeta(empty WAL file) = %v, %v, want absent", m, err)
	}

	junk := t.TempDir()
	if err := os.WriteFile(filepath.Join(junk, WALFile), []byte("definitely not an upsert log header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekMeta(junk); err == nil {
		t.Fatal("PeekMeta(garbage WAL) succeeded")
	}
}

// TestPeekMetaUnreadableWAL: a WAL that cannot be read is an error, as
// an unreadable snapshot is, not a directory without an index.
func TestPeekMetaUnreadableWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, WALFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if m, err := PeekMeta(dir); err == nil {
		t.Fatalf("PeekMeta over an unreadable WAL = %+v, nil; want an error", m)
	}
}

func TestPeekMetaSnapshot(t *testing.T) {
	short := t.TempDir()
	if err := os.WriteFile(filepath.Join(short, SnapshotFile), []byte("ALSNAP"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekMeta(short); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("PeekMeta(header-short snapshot) = %v, want ErrCorrupt", err)
	}

	wrong := t.TempDir()
	if err := os.WriteFile(filepath.Join(wrong, SnapshotFile), make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekMeta(wrong); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("PeekMeta(wrong magic) = %v, want ErrCorrupt", err)
	}

	// A version from the future is named in the error, not guessed at.
	img := encodeSnapshot(t, buildIndex(t, 1, 3))
	binary.LittleEndian.PutUint32(img[8:], SnapshotVersion+1)
	future := t.TempDir()
	if err := os.WriteFile(filepath.Join(future, SnapshotFile), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekMeta(future); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("PeekMeta(future version) = %v", err)
	}
}

func TestSyncPolicyString(t *testing.T) {
	for _, c := range []struct {
		p    SyncPolicy
		want string
	}{{SyncAlways, "always"}, {SyncNone, "none"}, {SyncPolicy(9), "SyncPolicy(9)"}} {
		if got := c.p.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int(c.p), got, c.want)
		}
	}
}

// TestDecodeSnapshotStructuralCorruption re-seals mutated images with a
// valid checksum, so each case exercises a structural validator rather
// than the CRC gate (which snapshot_test pins separately). The images
// are version 5: these are the validators of the fixed-width layout
// versions 1 to 5 load through (TestV6CorruptSections pins version
// 6's).
func TestDecodeSnapshotStructuralCorruption(t *testing.T) {
	v, err := buildIndex(t, 2, 12).ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	base := contentOf(v).fixedWidth(5)
	nTuples := int(binary.LittleEndian.Uint32(base[32:]))
	if nTuples < 2 {
		t.Fatalf("test image has %d tuples, need at least 2", nTuples)
	}
	keysOffsets := 40 + 8*nTuples + 4 // ids end + keys count word
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   string
	}{
		{"future version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], SnapshotVersion+7)
			return b
		}, "format version"},
		{"zero shards", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[20:], 0)
			return b
		}, "shard count"},
		{"tuple count beyond input", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[32:], 1<<31)
			return b
		}, "count"},
		{"tuple ids beyond input", func(b []byte) []byte {
			// Small enough to pass the count-vs-remaining screen, too
			// large for n fixed-width ids to fit.
			binary.LittleEndian.PutUint32(b[32:], uint32((len(b)-4-40)/8+1))
			return b
		}, "exceeds remaining"},
		{"keys offset table not ascending", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[keysOffsets+4:], 1<<31)
			return b
		}, "not ascending"},
		{"keys offset table starts nonzero", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[keysOffsets:], 1)
			return b
		}, "want 0"},
		{"truncated mid-sections", func(b []byte) []byte {
			return b[:60]
		}, "exceeds remaining"},
		{"trailing bytes after last shard", func(b []byte) []byte {
			return append(b[:len(b)-4], 0xEE, 0xEE, 0, 0, 0, 0)
		}, "trailing bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			img := fixCRC(c.mutate(append([]byte(nil), base...)))
			_, err := DecodeSnapshot(img)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("DecodeSnapshot = %v, want error containing %q", err, c.want)
			}
		})
	}
}

// v6Sections are the sections of a version-6 image, field by field, for
// TestV6CorruptSections to break one at a time.
type v6Sections struct {
	ids, keyLens, keys, attrCounts, attrLens, attrs, shards, trailing []byte
}

func (s v6Sections) image(header []byte) []byte {
	img := bytes.Clone(header)
	for _, b := range [][]byte{s.ids, s.keyLens, s.keys, s.attrCounts, s.attrLens, s.attrs, s.shards, s.trailing} {
		img = append(img, b...)
	}
	return binary.LittleEndian.AppendUint32(img, crc32.Checksum(img, castagnoli))
}

// TestV6CorruptSections spells out a version-6 image of two tuples in
// one shard byte by byte — the encoder must write exactly these bytes —
// and breaks its sections one at a time under a valid checksum: each
// break is refused as corrupt with a message naming it, before anything
// is allocated for the bytes it claims.
func TestV6CorruptSections(t *testing.T) {
	ix, err := join.BuildShardedRefIndex(join.Defaults(), 1, []relation.Tuple{
		{ID: 1, Key: "ab", Attrs: []string{"x"}},
		{ID: 2, Key: "cd"},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteSnapshot(&want, v); err != nil {
		t.Fatal(err)
	}
	header := want.Bytes()[:snapHeaderMax-maxProfileLen]
	pristine := v6Sections{
		ids:        []byte{2, 0}, // zigzag(1 − (−1) − 1), zigzag(2 − 1 − 1)
		keyLens:    []byte{2, 2},
		keys:       []byte("abcd"),
		attrCounts: []byte{1, 0},
		attrLens:   []byte{1},
		attrs:      []byte("x"),
		shards:     []byte{2, 0, 0}, // two members, refs 0 and 1
	}
	if got := pristine.image(header); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("encoder wrote\n % x\nthe layout spells\n % x", want.Bytes(), got)
	}
	if got, err := loadImage(t, pristine.image(header)).ExportSnapshot(); err != nil || !sameView(got, v) {
		t.Fatalf("pristine image loads to %+v, %v; want %+v", got, err, v)
	}
	cases := []struct {
		name   string
		mutate func(s *v6Sections)
		want   string
	}{
		{"varint over ten bytes", func(s *v6Sections) {
			s.ids = append(bytes.Repeat([]byte{0x80}, 10), 0x01, 0)
		}, "runs over 10 bytes"},
		{"varint past the input", func(s *v6Sections) {
			*s = v6Sections{ids: []byte{2, 0}, keyLens: []byte{0, 0}, attrCounts: []byte{0, 0x80}}
		}, "runs past the end"},
		{"length past uint32", func(s *v6Sections) {
			s.keyLens = binary.AppendUvarint(nil, 1<<32)
		}, "past uint32"},
		{"key lengths past the blob", func(s *v6Sections) {
			s.keyLens = []byte{2, 60}
		}, "key length column totals 62"},
		{"attr count past the remaining input", func(s *v6Sections) {
			s.attrCounts = []byte{1, 40}
		}, "attr count column totals 41"},
		{"attr lengths past the blob", func(s *v6Sections) {
			s.attrLens = []byte{9}
		}, "attr length column totals 9"},
		{"shard count above n", func(s *v6Sections) {
			s.shards = []byte{3, 0, 0, 0}
		}, "holds 3 members, the store 2 tuples"},
		{"global ref past uint32", func(s *v6Sections) {
			s.shards = append([]byte{2, 0}, binary.AppendVarint(nil, 1<<32)...)
		}, "outside the uint32 ref space"},
		{"trailing bytes", func(s *v6Sections) {
			s.trailing = []byte{0}
		}, "1 trailing bytes"},
		{"tuple count past the input", func(s *v6Sections) {
			*s = v6Sections{ids: []byte{0, 0}}
		}, "tuple count 2 needs 6 bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := pristine
			c.mutate(&s)
			_, err := DecodeSnapshot(s.image(header))
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("DecodeSnapshot = %v, want a corruption error containing %q", err, c.want)
			}
		})
	}
}

func TestSnapshotFileErrors(t *testing.T) {
	if _, err := ReadSnapshotFile(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("ReadSnapshotFile on a missing path succeeded")
	}
	v, err := buildIndex(t, 1, 3).ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFileFS(vfs.OS, filepath.Join(t.TempDir(), "no", "such", "dir", "x.snap"), v); err == nil {
		t.Fatal("WriteSnapshotFileFS into a missing directory succeeded")
	}
}

// TestOpenWALMetaMismatch: a log written under one configuration
// refuses to open under another, naming the mismatch.
func TestOpenWALMetaMismatch(t *testing.T) {
	meta := MetaOf(buildIndex(t, 2, 5))
	path := filepath.Join(t.TempDir(), WALFile)
	w, _, err := OpenWALFS(vfs.OS, path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]relation.Tuple{{ID: 1, Key: "logged row"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	other := meta
	other.Theta += 0.1
	if _, _, err := OpenWALFS(vfs.OS, path, other, SyncAlways); err == nil || !strings.Contains(err.Error(), "configuration mismatch") {
		t.Fatalf("OpenWALFS with mismatched meta = %v", err)
	}
}

// TestWALDropsLargeEncodeBuffer: the buffer a WAL keeps between appends
// is bounded, so a bulk load's frame is not held for the index's life,
// while an ordinary batch still reuses it.
func TestWALDropsLargeEncodeBuffer(t *testing.T) {
	meta := Meta{Q: 3, Theta: 0.75, Measure: simfn.Jaccard, Shards: 2}
	w, _, err := OpenWALFS(vfs.OS, filepath.Join(t.TempDir(), WALFile), meta, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := func(n int) []relation.Tuple {
		ts := make([]relation.Tuple, n)
		for i := range ts {
			ts[i] = relation.Tuple{ID: i, Key: "via monte bianco " + strconv.Itoa(i), Attrs: []string{"41.9", "12.5"}}
		}
		return ts
	}
	if err := w.Append(batch(10_000)); err != nil {
		t.Fatal(err)
	}
	if cap(w.enc) > maxKeptEncode {
		t.Fatalf("a 10k-tuple append left a %d-byte encode buffer, bound %d", cap(w.enc), maxKeptEncode)
	}
	if err := w.Append(batch(16)); err != nil {
		t.Fatal(err)
	}
	kept := cap(w.enc)
	if kept == 0 || kept > maxKeptEncode {
		t.Fatalf("a 16-tuple append kept a %d-byte encode buffer, want one within (0, %d]", kept, maxKeptEncode)
	}
	if err := w.Append(batch(16)); err != nil {
		t.Fatal(err)
	}
	if cap(w.enc) != kept {
		t.Fatal("the next 16-tuple append did not reuse the kept buffer")
	}
}
