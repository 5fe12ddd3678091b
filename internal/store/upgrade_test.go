package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/vfs"
)

// v2Fixture is a version-2 snapshot written by the last build whose
// shards were prefix-replicated (4 shards, default configuration; its
// 42 tuples occupied 138 shard slots, a replication factor of 3.3). It
// is v2FixtureTuples bulk-built from the first 30, then upserted with
// the rest, then with the replacement of tuple 3.
const v2Fixture = "testdata/v2_replicated_4shards.snap"

var v2FixtureMeta = Meta{Q: 3, Theta: join.DefaultTheta, Measure: join.Defaults().Measure, Shards: 4}

func v2FixtureTuples() []relation.Tuple {
	streets := []string{"VIA MONTE BIANCO", "VIA MONTE BIANCA", "LAGO DI COMO EST", "VALLE VERDE OVEST",
		"PIAZZA DUOMO", "CORSO GARIBALDI", "VIALE DELLA LIBERTA", "VICOLO STRETTO"}
	var ts []relation.Tuple
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("%s %d NORD %d", streets[i%len(streets)], i, i%7)
		ts = append(ts, relation.Tuple{ID: i, Key: key, Attrs: []string{fmt.Sprintf("payload-%d", i), "v2"}})
	}
	ts = append(ts, relation.Tuple{ID: 40, Key: "", Attrs: []string{"empty-key"}}, relation.Tuple{ID: 41, Key: "AB"})
	ts[3].Attrs = []string{"replaced-3"}
	return ts
}

// v3Fixture is a version-3 snapshot of the same content and history
// (bulk build, upsert, replacement) written by the last build that
// stored the postings table: hash-partitioned shards, each carrying
// gram→refs postings beside the ref→grams signatures.
const v3Fixture = "testdata/v3_partitioned_4shards.snap"

// v4Fixture is a version-4 snapshot of the same content, written by the
// last build that stored q-gram sections (dictionary, sizes, signatures
// and the signature floor per shard) from a bulk build of
// v2FixtureTuples.
const v4Fixture = "testdata/v4_partitioned_4shards.snap"

// v5Fixture is a version-5 snapshot of the same content, written by the
// last build that stored its sections fixed-width (8-byte ids, u32
// offset tables, u32 global refs) from a bulk build of v2FixtureTuples.
const v5Fixture = "testdata/v5_partitioned_4shards.snap"

// seedFixture makes dir an index directory holding the fixture as its
// checkpoint and no log.
func seedFixture(t *testing.T, dir, fixture string) {
	t.Helper()
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func snapshotVersionOf(t *testing.T, path string) uint32 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(data[len(snapMagic):])
}

// assertAnswersLike holds ix to a single-shard index of the same
// upserts on every stored key and a one-character variant of it, in
// both probe modes, fully ordered; the approximate probes build both,
// so the entry counts compare built indexes.
func assertAnswersLike(t *testing.T, ref, ix *join.ShardedRefIndex) {
	t.Helper()
	if ix.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", ix.Len(), ref.Len())
	}
	for i := 0; i < ref.Len(); i++ {
		tp, _ := ref.Tuple(i)
		variant := tp.Key + "X"
		if len(tp.Key) > 4 {
			variant = tp.Key[:2] + "x" + tp.Key[3:]
		}
		for _, key := range []string{tp.Key, variant} {
			for _, mode := range []join.Mode{join.Exact, join.Approx} {
				want, got := renderProbe(ref.Probe(mode, key)), renderProbe(ix.Probe(mode, key))
				if got != want {
					t.Fatalf("Probe(%v, %q) = %s, want %s", mode, key, got, want)
				}
			}
		}
	}
	refEx, refQG := ref.Entries()
	if ex, qg := ix.Entries(); ex != refEx || qg != refQG {
		t.Fatalf("Entries = %d/%d, want the reference's %d/%d (one copy of every tuple)", ex, qg, refEx, refQG)
	}
}

// TestV2SnapshotUpgrade pins the upgrade path end to end: a snapshot
// written under the prefix-replicated layout opens under this build,
// answers exactly like a fresh index of the same tuples, holds one copy
// of every tuple, applies an update of a resident key to that one copy
// (the stale-replica guard: adopted replicas would keep answering with
// the old payload), and is rewritten in the current version by the next
// checkpoint.
func TestV2SnapshotUpgrade(t *testing.T) {
	if v := snapshotVersionOf(t, v2Fixture); v != 2 {
		t.Fatalf("fixture is version %d, want 2", v)
	}
	dir := t.TempDir()
	seedFixture(t, dir, v2Fixture)
	if m, err := PeekMeta(dir); err != nil || m == nil || *m != v2FixtureMeta {
		t.Fatalf("PeekMeta = %+v, %v; want %+v", m, err, v2FixtureMeta)
	}
	d, ix, rec, err := Open(vfs.OS, dir, v2FixtureMeta, SyncNone)
	if err != nil {
		t.Fatalf("opening the v2 fixture: %v", err)
	}
	tuples := v2FixtureTuples()
	if rec.SnapshotTuples != len(tuples) {
		t.Fatalf("recovered %d snapshot tuples, want %d", rec.SnapshotTuples, len(tuples))
	}
	ref, err := join.NewShardedRefIndex(join.Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref.Upsert(tuples)
	assertAnswersLike(t, ref, ix)

	// Update a resident key whose signature spanned several shards.
	update := []relation.Tuple{{ID: 500, Key: tuples[8].Key, Attrs: []string{"updated-after-upgrade"}}}
	if err := d.Append(update); err != nil {
		t.Fatal(err)
	}
	if ins, upd, _ := ix.Upsert(update); ins != 0 || upd != 1 {
		t.Fatalf("update of a resident key = %d inserted / %d updated", ins, upd)
	}
	ref.Upsert(update)
	for _, mode := range []join.Mode{join.Exact, join.Approx} {
		hits := 0
		for _, m := range ix.Probe(mode, update[0].Key) {
			if m.Ref.Key != update[0].Key {
				continue
			}
			hits++
			if m.Ref.Attrs[0] != "updated-after-upgrade" {
				t.Fatalf("mode %v: resident key answers with stale payload %v", mode, m.Ref.Attrs)
			}
		}
		if hits != 1 {
			t.Fatalf("mode %v: updated key matched %d times, want exactly once", mode, hits)
		}
	}
	assertAnswersLike(t, ref, ix)

	// The next checkpoint writes the current format; the reopened index
	// is content-identical to a fresh build fed the same writes.
	if err := d.Checkpoint(ix); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersionOf(t, filepath.Join(dir, SnapshotFile)); v != SnapshotVersion {
		t.Fatalf("checkpoint after upgrade wrote version %d, want %d", v, SnapshotVersion)
	}
	d2, ix2, _, err := Open(vfs.OS, dir, v2FixtureMeta, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	assertAnswersLike(t, ref, ix2)
	fresh, err := join.BuildShardedRefIndex(join.Defaults(), 4, tuples)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Upsert(update)
	vFresh, _ := fresh.ExportSnapshot()
	vUp, _ := ix2.ExportSnapshot()
	if a, b := DigestView(vFresh), DigestView(vUp); a.Combined != b.Combined {
		t.Fatalf("upgraded index digest %s, fresh build %s", b.Combined, a.Combined)
	}
}

// TestCrashSweepAcrossSnapshotUpgrade is the crash-at-every-write sweep
// started on a version-2 checkpoint: whichever write of the upgrade's
// appends and (current-version) checkpoints the process dies in,
// recovery opens cleanly on the old or the new state with every fixture
// tuple and every acknowledged write intact. The same sweep then starts
// from the version-3, the version-4 and the version-5 fixture.
func TestCrashSweepAcrossSnapshotUpgrade(t *testing.T) {
	resident := make(map[string]string)
	for _, tp := range v2FixtureTuples() {
		resident[tp.Key] = payload(tp)
	}
	crashSweep(t, v2FixtureMeta, resident, func(dir string) { seedFixture(t, dir, v2Fixture) })
	t.Run("v3", func(t *testing.T) {
		crashSweep(t, v2FixtureMeta, resident, func(dir string) { seedFixture(t, dir, v3Fixture) })
	})
	t.Run("v4", func(t *testing.T) {
		crashSweep(t, v2FixtureMeta, resident, func(dir string) { seedFixture(t, dir, v4Fixture) })
	})
	t.Run("v5", func(t *testing.T) {
		crashSweep(t, v2FixtureMeta, resident, func(dir string) { seedFixture(t, dir, v5Fixture) })
	})
}

// TestV3SnapshotUpgrade pins the upgrade from the last format that
// stored postings: the fixture opens under this build, answers exactly
// like a fresh index of the same tuples, and the next checkpoint
// rewrites it as the current version, from which the index reloads to
// the very view that was written.
func TestV3SnapshotUpgrade(t *testing.T) {
	if v := snapshotVersionOf(t, v3Fixture); v != 3 {
		t.Fatalf("fixture is version %d, want 3", v)
	}
	dir := t.TempDir()
	seedFixture(t, dir, v3Fixture)
	d, ix, rec, err := Open(vfs.OS, dir, v2FixtureMeta, SyncNone)
	if err != nil {
		t.Fatalf("opening the v3 fixture: %v", err)
	}
	tuples := v2FixtureTuples()
	if rec.SnapshotTuples != len(tuples) {
		t.Fatalf("recovered %d snapshot tuples, want %d", rec.SnapshotTuples, len(tuples))
	}
	ref, err := join.NewShardedRefIndex(join.Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ref.Upsert(tuples)
	assertAnswersLike(t, ref, ix)
	fresh, err := join.BuildShardedRefIndex(join.Defaults(), 4, tuples)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, fresh, ix)

	written, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(ix); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersionOf(t, filepath.Join(dir, SnapshotFile)); v != SnapshotVersion {
		t.Fatalf("checkpoint after upgrade wrote version %d, want %d", v, SnapshotVersion)
	}
	before, _ := os.Stat(v3Fixture)
	after, _ := os.Stat(filepath.Join(dir, SnapshotFile))
	if after.Size() >= before.Size() {
		t.Fatalf("version-%d checkpoint is %d bytes, the version-3 image of the same content %d", SnapshotVersion, after.Size(), before.Size())
	}
	d2, ix2, _, err := Open(vfs.OS, dir, v2FixtureMeta, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	reloaded, err := ix2.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !sameView(written, reloaded) {
		t.Fatal("view exported after the reload differs from the view the checkpoint wrote")
	}
	assertAnswersLike(t, ref, ix2)
}

// openFixture opens a copy of a snapshot fixture as an index directory.
func openFixture(t *testing.T, fixture string) (string, *Dir, *join.ShardedRefIndex) {
	t.Helper()
	dir := t.TempDir()
	seedFixture(t, dir, fixture)
	d, ix, rec, err := Open(vfs.OS, dir, v2FixtureMeta, SyncNone)
	if err != nil {
		t.Fatalf("opening %s: %v", fixture, err)
	}
	if rec.SnapshotTuples != len(v2FixtureTuples()) {
		t.Fatalf("%s: recovered %d snapshot tuples, want %d", fixture, rec.SnapshotTuples, len(v2FixtureTuples()))
	}
	return dir, d, ix
}

// digestOf is the content digest of an index's current export.
func digestOf(t *testing.T, ix *join.ShardedRefIndex) ContentDigest {
	t.Helper()
	v, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return DigestView(v)
}

// TestV4SnapshotUpgrade pins the upgrade from the last format that
// stored q-gram sections: the fixture opens under this build and
// answers exactly like the version-3 fixture of the same content; its
// next checkpoint writes the current version, less than half its size,
// which reopens to the same answers; and every lineage of the content —
// the v3, v4 and current images, a bulk build, a build grown by upserts
// — digests the same.
func TestV4SnapshotUpgrade(t *testing.T) {
	if v := snapshotVersionOf(t, v4Fixture); v != 4 {
		t.Fatalf("fixture is version %d, want 4", v)
	}
	_, d3, ix3 := openFixture(t, v3Fixture)
	defer d3.Close()
	dir, d, ix := openFixture(t, v4Fixture)
	assertSameIndex(t, ix3, ix)
	ref, err := join.NewShardedRefIndex(join.Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tuples := v2FixtureTuples()
	ref.Upsert(tuples)
	assertAnswersLike(t, ref, ix)

	if err := d.Checkpoint(ix); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersionOf(t, filepath.Join(dir, SnapshotFile)); v != SnapshotVersion {
		t.Fatalf("checkpoint after upgrade wrote version %d, want %d", v, SnapshotVersion)
	}
	before, _ := os.Stat(v4Fixture)
	after, _ := os.Stat(filepath.Join(dir, SnapshotFile))
	if 2*after.Size() >= before.Size() {
		t.Fatalf("version-%d checkpoint is %d bytes, the version-4 image of the same content %d: want under half", SnapshotVersion, after.Size(), before.Size())
	}
	dCur, ixCur, _, err := Open(vfs.OS, dir, v2FixtureMeta, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer dCur.Close()
	assertAnswersLike(t, ref, ixCur)

	bulk, err := join.BuildShardedRefIndex(join.Defaults(), 4, tuples)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := join.NewShardedRefIndex(join.Defaults(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tuples); lo += 7 {
		grown.Upsert(tuples[lo:min(lo+7, len(tuples))])
	}
	want := digestOf(t, ix3)
	for name, lineage := range map[string]*join.ShardedRefIndex{"v4 image": ix, "current image": ixCur, "bulk-built": bulk, "grown by upserts": grown} {
		if got := digestOf(t, lineage); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: digest %+v, the v3 image's %+v", name, got, want)
		}
	}
}

// TestV5SnapshotUpgrade pins the upgrade from the last fixed-width
// format: the fixture opens under this build and answers exactly like
// the version-4 fixture of the same content; its next checkpoint writes
// version 6, smaller, which reopens to the very view that was written;
// and every lineage of the content — the v3, v4, v5 and v6 images, a
// bulk build, a build grown by upserts — digests the same, since the
// digest covers the canonical content stream and not the file.
func TestV5SnapshotUpgrade(t *testing.T) {
	if v := snapshotVersionOf(t, v5Fixture); v != 5 {
		t.Fatalf("fixture is version %d, want 5", v)
	}
	_, d3, ix3 := openFixture(t, v3Fixture)
	defer d3.Close()
	_, d4, ix4 := openFixture(t, v4Fixture)
	defer d4.Close()
	dir, d, ix := openFixture(t, v5Fixture)
	assertSameIndex(t, ix4, ix)
	ref, err := join.NewShardedRefIndex(join.Defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tuples := v2FixtureTuples()
	ref.Upsert(tuples)
	assertAnswersLike(t, ref, ix)

	written, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(ix); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersionOf(t, filepath.Join(dir, SnapshotFile)); v != 6 {
		t.Fatalf("checkpoint after upgrade wrote version %d, want 6", v)
	}
	before, _ := os.Stat(v5Fixture)
	after, _ := os.Stat(filepath.Join(dir, SnapshotFile))
	t.Logf("version-5 image %d bytes, version-6 checkpoint %d", before.Size(), after.Size())
	if 4*after.Size() >= 3*before.Size() {
		t.Fatalf("version-6 checkpoint is %d bytes, the version-5 image of the same content %d: want under three quarters", after.Size(), before.Size())
	}
	d6, ix6, _, err := Open(vfs.OS, dir, v2FixtureMeta, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer d6.Close()
	reloaded, err := ix6.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !sameView(written, reloaded) {
		t.Fatal("view exported after the reload differs from the view the checkpoint wrote")
	}
	assertAnswersLike(t, ref, ix6)

	bulk, err := join.BuildShardedRefIndex(join.Defaults(), 4, tuples)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := join.NewShardedRefIndex(join.Defaults(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tuples); lo += 5 {
		grown.Upsert(tuples[lo:min(lo+5, len(tuples))])
	}
	want := digestOf(t, ix3)
	for name, lineage := range map[string]*join.ShardedRefIndex{"v4 image": ix4, "v5 image": ix, "v6 image": ix6, "bulk-built": bulk, "grown by upserts": grown} {
		if got := digestOf(t, lineage); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: digest %+v, the v3 image's %+v", name, got, want)
		}
	}
}

// v4SectionSpans returns, per shard of a version-4 image, the byte
// offsets of its sizes words and of its signature words, walking the
// sections the way the decoder does.
func v4SectionSpans(t *testing.T, data []byte) (sizes, sigs [][2]int) {
	t.Helper()
	r := &reader{data: data[:len(data)-4], off: len(snapMagic)}
	r.take(3 * 4) // version, q, measure
	shards := int(r.u32())
	r.u64() // theta
	n := r.count("tuple")
	r.take(int(r.u32())) // profile
	r.take(8 * n)
	r.stringBlob("key")
	r.offsets(n)
	r.stringBlob("attr")
	for i := 0; i < shards; i++ {
		r.u32slice("global")
		r.stringBlob("gram")
		start := r.off + 4
		r.u32slice("size")
		sizes = append(sizes, [2]int{start, r.off})
		offs := r.offsets(r.count("signature"))
		start = r.off
		r.take(4 * int(offs[len(offs)-1]))
		sigs = append(sigs, [2]int{start, r.off})
		r.u32() // floor
	}
	if r.err != nil || r.off != len(r.data) {
		t.Fatalf("walking the v4 fixture: err %v, stopped at %d of %d", r.err, r.off, len(r.data))
	}
	return sizes, sigs
}

// TestV4QGramSectionChecked pins that a version-4 image's q-gram
// sections, which nothing keeps, are still checked where they lie: a
// signature naming a gram outside the shard's dictionary, or a size
// that disagrees with its signature, fails the load as corrupt even
// under a valid checksum.
func TestV4QGramSectionChecked(t *testing.T) {
	pristine, err := os.ReadFile(v4Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(pristine); err != nil {
		t.Fatalf("pristine fixture rejected: %v", err)
	}
	sizes, sigs := v4SectionSpans(t, pristine)
	cases := []struct {
		name string
		word int // byte offset of the word to overwrite
		val  uint32
		want string
	}{
		{"signature gram id out of dictionary", sigs[0][0], math.MaxUint32, "not strictly ascending within dictionary"},
		{"size disagrees with signature", sizes[1][0], 1 << 20, "its size says"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), pristine...)
			binary.LittleEndian.PutUint32(bad[c.word:], c.val)
			body := bad[:len(bad)-4]
			binary.LittleEndian.PutUint32(bad[len(body):], crc32.Checksum(body, castagnoli))
			_, err := DecodeSnapshot(bad)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("DecodeSnapshot = %v, want a corruption error containing %q", err, c.want)
			}
		})
	}
}

// v3PostingWords returns the byte span of every shard's flattened
// posting words in a version-3 image, walking the sections the way the
// decoder does.
func v3PostingWords(t *testing.T, data []byte) [][2]int {
	t.Helper()
	r := &reader{data: data[:len(data)-4], off: len(snapMagic)}
	r.take(3 * 4) // version, q, measure
	shards := int(r.u32())
	r.u64() // theta
	n := r.count("tuple")
	r.take(int(r.u32())) // profile
	r.take(8 * n)
	r.stringBlob("key")
	r.offsets(n)
	r.stringBlob("attr")
	var spans [][2]int
	for i := 0; i < shards; i++ {
		r.u32slice("global")
		r.stringBlob("gram")
		offs := r.offsets(r.count("posting"))
		start := r.off
		r.take(4 * int(offs[len(offs)-1]))
		spans = append(spans, [2]int{start, r.off})
		r.u32slice("size")
		r.raggedInPlace("signature")
		r.u32()
	}
	if r.err != nil || r.off != len(r.data) {
		t.Fatalf("walking the v3 fixture: err %v, stopped at %d of %d", r.err, r.off, len(r.data))
	}
	return spans
}

// TestV3PostingsSectionNotTrusted scrambles every posting word of the
// version-3 fixture and re-seals the checksum: the loader bounds-checks
// and skips the section and derives the table from the signatures, so
// the image loads to the same index as the pristine one.
func TestV3PostingsSectionNotTrusted(t *testing.T) {
	pristine, err := os.ReadFile(v3Fixture)
	if err != nil {
		t.Fatal(err)
	}
	scrambled := append([]byte(nil), pristine...)
	words := 0
	for _, span := range v3PostingWords(t, scrambled) {
		for i := span[0]; i < span[1]; i++ {
			scrambled[i] ^= 0xA5
		}
		words += (span[1] - span[0]) / 4
	}
	if words < 1000 {
		t.Fatalf("fixture carries only %d posting words; nothing was scrambled", words)
	}
	body := scrambled[:len(scrambled)-4]
	binary.LittleEndian.PutUint32(scrambled[len(body):], crc32.Checksum(body, castagnoli))

	load := func(data []byte) (*join.SnapshotView, *join.ShardedRefIndex) {
		ix := loadImage(t, data)
		out, err := ix.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return out, ix
	}
	wantView, want := load(pristine)
	gotView, got := load(scrambled)
	if !sameView(wantView, gotView) {
		t.Fatal("scrambled postings changed the loaded index's exported view")
	}
	assertSameIndex(t, want, got)

	// The section is skipped, not ignored: its length words are still
	// bounds-checked against the image.
	for _, span := range v3PostingWords(t, pristine) {
		broken := append([]byte(nil), pristine...)
		binary.LittleEndian.PutUint32(broken[span[0]-4:], uint32(len(broken)))
		body := broken[:len(broken)-4]
		binary.LittleEndian.PutUint32(broken[len(body):], crc32.Checksum(body, castagnoli))
		if _, err := DecodeSnapshot(broken); err == nil {
			t.Fatal("posting section reaching past the image decoded without error")
		}
	}
}
