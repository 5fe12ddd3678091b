package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/vfs"
)

// testTuples builds a deterministic batch with realistic keys, typos
// (approximate neighbours), duplicate keys and an empty key.
func testTuples(n int) []relation.Tuple {
	rng := rand.New(rand.NewSource(42))
	first := []string{"john", "maria", "wei", "fatima", "ivan", "chidi", "sofia", "lars"}
	last := []string{"smith", "garcia", "chen", "mueller", "okafor", "rossi", "tanaka", "novak"}
	out := make([]relation.Tuple, 0, n+n/4+1)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s %s %03d", first[rng.Intn(len(first))], last[rng.Intn(len(last))], i)
		out = append(out, relation.Tuple{ID: i, Key: key, Attrs: []string{fmt.Sprintf("row-%d", i)}})
	}
	for i := 0; i < n/4; i++ {
		src := out[rng.Intn(n)].Key
		// One-character typo: an approximate, non-exact neighbour.
		b := []byte(src)
		b[rng.Intn(len(b))] = 'x'
		out = append(out, relation.Tuple{ID: 1000 + i, Key: string(b), Attrs: []string{"typo"}})
	}
	out = append(out, relation.Tuple{ID: 9999, Key: "", Attrs: []string{"empty"}})
	return out
}

func buildIndex(t *testing.T, shards, n int) *join.ShardedRefIndex {
	t.Helper()
	ix, err := join.BuildShardedRefIndex(join.Defaults(), shards, testTuples(n))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func renderProbe(ms []join.RefMatch) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%q:%v:%.9f:%v;", m.Ref.Key, m.Ref.Attrs, m.Similarity, m.Exact)
	}
	return b.String()
}

// assertSameIndex holds two resident indexes to observational equality:
// store contents and probe answers in both modes for every stored key.
func assertSameIndex(t *testing.T, want, got *join.ShardedRefIndex) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		a, errA := want.Tuple(i)
		b, errB := got.Tuple(i)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("Tuple(%d) = %+v (%v), want %+v (%v)", i, b, errB, a, errA)
		}
		for _, mode := range []join.Mode{join.Exact, join.Approx} {
			w := renderProbe(want.Probe(mode, a.Key))
			g := renderProbe(got.Probe(mode, a.Key))
			if w != g {
				t.Fatalf("Probe(%v, %q) = %s, want %s", mode, a.Key, g, w)
			}
		}
	}
}

// sameView reports whether two views hold the same configuration, store
// (as Store walks it) and member refs.
func sameView(a, b *join.SnapshotView) bool {
	return a.Cfg == b.Cfg && a.NShard == b.NShard &&
		reflect.DeepEqual(slices.Collect(a.Store()), slices.Collect(b.Store())) &&
		reflect.DeepEqual(a.Shards, b.Shards)
}

func encodeSnapshot(t *testing.T, ix *join.ShardedRefIndex) []byte {
	t.Helper()
	v, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotCodecRoundTrip pins encode → decode to identity (the
// loaded index exports the exported view's configuration, store and
// member refs) and to behavioural identity.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ix := buildIndex(t, shards, 120)
			want, err := ix.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, want); err != nil {
				t.Fatal(err)
			}
			loaded, err := DecodeSnapshot(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if got, err := loaded.ExportSnapshot(); err != nil || !sameView(want, got) {
				t.Fatalf("the loaded index exports a view other than the written one (%v)", err)
			}
			assertSameIndex(t, ix, loaded)
			// The loaded index stays writable.
			extra := relation.Tuple{ID: 7777, Key: "maria rossi 999", Attrs: []string{"late"}}
			ix.Upsert([]relation.Tuple{extra})
			loaded.Upsert([]relation.Tuple{extra})
			assertSameIndex(t, ix, loaded)
		})
	}
}

// TestLoadKeepsNothingOfImage: an index loaded from an image owns
// every byte it answers with. Once the image is loaded, every byte of it
// is overwritten; the index must then answer every stored key, exactly
// and approximately (so the shards' q-gram structures are built from
// what the load kept), as the index the image was written from, and
// digest alike — for a current image and for the fixed-width layout.
func TestLoadKeepsNothingOfImage(t *testing.T) {
	src := buildIndex(t, 3, 300)
	v, err := src.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{"v6": encodeSnapshot(t, src), "v5": contentOf(v).fixedWidth(5)} {
		t.Run(name, func(t *testing.T) {
			ix := loadImage(t, img)
			overwrite(img)
			assertSameIndex(t, src, ix)
			got, err := ix.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if a, b := DigestView(got), DigestView(v); !reflect.DeepEqual(a, b) {
				t.Fatalf("digest %+v after the image was overwritten, source %+v", a, b)
			}
		})
	}
}

// TestHeldViewEncodesExportTimeBytes pins what lets a checkpoint, an
// export stream or a digest encode after the writer lock is gone: a
// view held across any number of later upserts — inserts, replacements,
// enough new keys to fold the shared tables — encodes, whenever and
// however often it is asked, to the bytes it would have encoded at
// export time.
func TestHeldViewEncodesExportTimeBytes(t *testing.T) {
	ix := buildIndex(t, 3, 90)
	atExport := encodeSnapshot(t, ix)
	// The view walks the shard generations it loaded.
	held, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeSnapshot(atExport)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := loaded.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	digest := DigestView(held)
	if got := DigestView(decoded); !reflect.DeepEqual(got, digest) {
		t.Fatalf("the exported view digests as %+v, its decoded image as %+v", digest, got)
	}
	rng := rand.New(rand.NewSource(29))
	stored := testTuples(90)
	for round := 0; round < 60; round++ {
		var batch []relation.Tuple
		for n := 1 + rng.Intn(6); n > 0; n-- {
			if rng.Intn(2) == 0 {
				batch = append(batch, relation.Tuple{ID: 5000 + round, Key: fmt.Sprintf("borgo nuovo %d interno %d", round, n), Attrs: []string{"new"}})
			} else {
				batch = append(batch, relation.Tuple{ID: round, Key: stored[rng.Intn(len(stored))].Key, Attrs: []string{fmt.Sprintf("v%d", round)}})
			}
		}
		ix.Upsert(batch)
	}
	if bytes.Equal(encodeSnapshot(t, ix), atExport) {
		t.Fatal("the upserts left the index's encoding unchanged: nothing was tested")
	}
	for _, v := range []*join.SnapshotView{held, decoded} {
		for pass := 0; pass < 2; pass++ {
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), atExport) {
				t.Fatalf("pass %d: a view held across 60 upsert batches encodes differently than at export time", pass)
			}
		}
		if got := DigestView(v); !reflect.DeepEqual(got, digest) {
			t.Fatalf("held view's digest moved from %+v to %+v", digest, got)
		}
	}
}

// TestSnapshotFileRoundTrip exercises the atomic file path.
func TestSnapshotFileRoundTrip(t *testing.T) {
	ix := buildIndex(t, 2, 60)
	v, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), SnapshotFile)
	if err := WriteSnapshotFileFS(vfs.OS, path, v); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: the rename must replace, not fail.
	if err := WriteSnapshotFileFS(vfs.OS, path, v); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, ix, loaded)
	if m, err := PeekMeta(filepath.Dir(path)); err != nil || m == nil {
		t.Fatalf("PeekMeta = %+v, %v", m, err)
	} else if err := m.Check(MetaOf(ix)); err != nil {
		t.Fatalf("peeked meta differs: %v", err)
	}
}

// TestSnapshotDecodeRejectsCorruption pins the corruption guards: any
// truncation or bit flip yields a descriptive error, never a panic and
// never a partial view.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	data := encodeSnapshot(t, buildIndex(t, 2, 40))
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	t.Run("truncation", func(t *testing.T) {
		for _, keep := range []int{0, 1, 7, 8, 11, 40, len(data) / 2, len(data) - 1} {
			if _, err := DecodeSnapshot(data[:keep]); err == nil {
				t.Fatalf("truncation to %d bytes decoded without error", keep)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for _, pos := range []int{0, 9, 13, 30, 44, len(data) / 3, len(data) / 2, len(data) - 2} {
			bad := append([]byte(nil), data...)
			bad[pos] ^= 0x40
			if _, err := DecodeSnapshot(bad); err == nil {
				t.Fatalf("bit flip at %d decoded without error", pos)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := DecodeSnapshot(append(append([]byte(nil), data...), 0xde, 0xad)); err == nil {
			t.Fatal("trailing garbage decoded without error")
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[8:], SnapshotVersion+1)
		// Re-seal so only the version check can object.
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[:len(bad)-4], castagnoli))
		_, err := DecodeSnapshot(bad)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("future version: err = %v, want a version error", err)
		}
	})
}

// TestWALAppendReplay pins the basic log contract: appended batches
// replay in order with identical contents, and Reset empties the log.
func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFile)
	meta := Meta{Q: 3, Theta: 0.75, Measure: simfn.Jaccard, Shards: 2}
	w, replay, err := OpenWALFS(vfs.OS, path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Records != 0 || replay.TornTail {
		t.Fatalf("fresh WAL replay = %+v", replay)
	}
	batches := [][]relation.Tuple{
		{{ID: 1, Key: "john smith", Attrs: []string{"a", "b"}}},
		{{ID: 2, Key: "maria garcia", Attrs: nil}, {ID: 3, Key: "", Attrs: []string{"empty-key"}}},
		{},
	}
	for _, b := range batches {
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != 3 {
		t.Fatalf("Records = %d, want 3", w.Records())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, replay, err = OpenWALFS(vfs.OS, path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if replay.TornTail || len(replay.Batches) != 3 {
		t.Fatalf("replay = %+v", replay)
	}
	for i, b := range replay.Batches {
		want := batches[i]
		if len(b) != len(want) {
			t.Fatalf("batch %d: %d tuples, want %d", i, len(b), len(want))
		}
		for j := range b {
			if !reflect.DeepEqual(b[j], want[j]) {
				t.Fatalf("batch %d tuple %d = %+v, want %+v", i, j, b[j], want[j])
			}
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(batches[0]); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, replay, err = OpenWALFS(vfs.OS, path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Batches) != 1 {
		t.Fatalf("post-reset replay carries %d batches, want 1", len(replay.Batches))
	}
}

// TestWALTornTail simulates a crash mid-append: the torn frame is
// dropped and truncated away, the intact prefix replays, and the log
// accepts new appends cleanly.
func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFile)
	meta := Meta{Q: 3, Theta: 0.75, Measure: simfn.Jaccard, Shards: 1}
	w, _, err := OpenWALFS(vfs.OS, path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]relation.Tuple{{ID: i, Key: fmt.Sprintf("key %d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	for _, cut := range []int{1, 5, 9} { // into the last frame's payload, CRC, length prefix
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(t.TempDir(), WALFile)
		if err := os.WriteFile(torn, data[:len(data)-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, replay, err := OpenWALFS(vfs.OS, torn, meta, SyncAlways)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !replay.TornTail || len(replay.Batches) != 2 {
			t.Fatalf("cut %d: replay = %+v, want 2 batches + torn tail", cut, replay)
		}
		// The torn bytes are gone; appends land on a clean boundary.
		if err := w2.Append([]relation.Tuple{{ID: 9, Key: "after crash"}}); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		_, replay, err = OpenWALFS(vfs.OS, torn, meta, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if replay.TornTail || len(replay.Batches) != 3 {
			t.Fatalf("cut %d: post-repair replay = %+v, want 3 clean batches", cut, replay)
		}
	}
}

// TestWALRejectsCorruption: a complete frame with a flipped bit is a
// hard error (not silently skipped), as are header and meta damage.
func TestWALRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, WALFile)
	meta := Meta{Q: 3, Theta: 0.75, Measure: simfn.Jaccard, Shards: 1}
	w, _, err := OpenWALFS(vfs.OS, path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Append([]relation.Tuple{{ID: i, Key: fmt.Sprintf("john smith %d", i), Attrs: []string{"x"}}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(pos int) string {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x01
		p := filepath.Join(t.TempDir(), WALFile)
		os.WriteFile(p, bad, 0o644)
		return p
	}
	t.Run("payload bit flip", func(t *testing.T) {
		if _, _, err := OpenWALFS(vfs.OS, flip(walFixedHeaderSize+12), meta, SyncAlways); err == nil {
			t.Fatal("bit-flipped frame replayed without error")
		}
	})
	t.Run("magic damage", func(t *testing.T) {
		if _, _, err := OpenWALFS(vfs.OS, flip(0), meta, SyncAlways); err == nil {
			t.Fatal("damaged magic accepted")
		}
	})
	t.Run("meta mismatch", func(t *testing.T) {
		other := meta
		other.Theta = 0.9
		_, _, err := OpenWALFS(vfs.OS, path, other, SyncAlways)
		if err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("err = %v, want a configuration mismatch", err)
		}
	})
}

// TestDirLifecycle drives the full durability loop: open empty, ingest
// through the WAL, checkpoint, ingest more, and at every stage prove a
// fresh Open reconstructs an index observationally identical to one
// that lived through everything in memory.
func TestDirLifecycle(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{Q: 3, Theta: 0.75, Measure: simfn.Jaccard, Shards: 2}
	ref, err := join.NewShardedRefIndex(metaConfig(meta), meta.Shards)
	if err != nil {
		t.Fatal(err)
	}

	d, ix, rec, err := Open(vfs.OS, dir, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotTuples != 0 || rec.WALRecords != 0 {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	tuples := testTuples(90)
	ingest := func(batch []relation.Tuple) {
		t.Helper()
		if err := d.Append(batch); err != nil {
			t.Fatal(err)
		}
		ix.Upsert(batch)
		ref.Upsert(batch)
	}
	reopen := func(wantSnapTuples int, wantWAL int64) {
		t.Helper()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, ix, rec, err = Open(vfs.OS, dir, meta, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if rec.SnapshotTuples != wantSnapTuples || rec.WALRecords != wantWAL {
			t.Fatalf("recovery = %+v, want snapshot %d + %d WAL records", rec, wantSnapTuples, wantWAL)
		}
		assertSameIndex(t, ref, ix)
	}

	ingest(tuples[:40])
	ingest(tuples[40:70])
	reopen(0, 2) // no snapshot yet: everything from the WAL

	if err := d.Checkpoint(ix); err != nil {
		t.Fatal(err)
	}
	if d.WALRecords() != 0 {
		t.Fatalf("WALRecords after checkpoint = %d", d.WALRecords())
	}
	if d.LastSnapshot().IsZero() {
		t.Fatal("LastSnapshot still zero after checkpoint")
	}
	snapLen := ix.Len()
	reopen(snapLen, 0) // everything from the snapshot

	ingest(tuples[70:]) // updates + fresh rows past the checkpoint
	reopen(snapLen, 1)  // snapshot + one replayed batch

	// A different configuration must be rejected, not reinterpreted.
	d.Close()
	other := meta
	other.Q = 4
	if _, _, _, err := Open(vfs.OS, dir, other, SyncAlways); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("Open with different q: err = %v, want configuration mismatch", err)
	}
	// PeekMeta surfaces the stored tuple for config resolution.
	m, err := PeekMeta(dir)
	if err != nil || m == nil {
		t.Fatalf("PeekMeta = %+v, %v", m, err)
	}
	if err := m.Check(meta); err != nil {
		t.Fatal(err)
	}
}

// TestPeekMetaEmpty: absent and empty directories carry no config.
func TestPeekMetaEmpty(t *testing.T) {
	if m, err := PeekMeta(filepath.Join(t.TempDir(), "nope")); m != nil || err != nil {
		t.Fatalf("PeekMeta(absent) = %+v, %v", m, err)
	}
	if m, err := PeekMeta(t.TempDir()); m != nil || err != nil {
		t.Fatalf("PeekMeta(empty) = %+v, %v", m, err)
	}
}
