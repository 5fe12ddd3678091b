package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
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

// seedV2Fixture makes dir an index directory holding the fixture as its
// checkpoint and no log.
func seedV2Fixture(t *testing.T, dir string) {
	t.Helper()
	data, err := os.ReadFile(v2Fixture)
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

// assertAnswersLike holds ix to the single-shard reference on every
// stored key and a one-character variant of it, in both probe modes,
// fully ordered.
func assertAnswersLike(t *testing.T, ref *join.RefIndex, ix *join.ShardedRefIndex) {
	t.Helper()
	if ix.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", ix.Len(), ref.Len())
	}
	refEx, refQG := ref.Entries()
	if ex, qg := ix.Entries(); ex != refEx || qg != refQG {
		t.Fatalf("Entries = %d/%d, want the reference's %d/%d (one copy of every tuple)", ex, qg, refEx, refQG)
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
}

// TestV2SnapshotUpgrade pins the upgrade path end to end: a snapshot
// written under the prefix-replicated layout opens under this build,
// answers exactly like a fresh index of the same tuples, holds one copy
// of every tuple, applies an update of a resident key to that one copy
// (the stale-replica guard: adopted replicas would keep answering with
// the old payload), and is rewritten as version 3 by the next
// checkpoint.
func TestV2SnapshotUpgrade(t *testing.T) {
	if v := snapshotVersionOf(t, v2Fixture); v != 2 {
		t.Fatalf("fixture is version %d, want 2", v)
	}
	dir := t.TempDir()
	seedV2Fixture(t, dir)
	if m, err := PeekMeta(dir); err != nil || m == nil || *m != v2FixtureMeta {
		t.Fatalf("PeekMeta = %+v, %v; want %+v", m, err, v2FixtureMeta)
	}
	d, ix, rec, err := Open(dir, v2FixtureMeta, SyncNone)
	if err != nil {
		t.Fatalf("opening the v2 fixture: %v", err)
	}
	tuples := v2FixtureTuples()
	if rec.SnapshotTuples != len(tuples) {
		t.Fatalf("recovered %d snapshot tuples, want %d", rec.SnapshotTuples, len(tuples))
	}
	ref, err := join.NewRefIndex(join.Defaults())
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
	if ins, upd := ix.Upsert(update); ins != 0 || upd != 1 {
		t.Fatalf("update of a resident key = %d inserted / %d updated", ins, upd)
	}
	ref.Upsert(update)
	for _, mode := range []join.Mode{join.Exact, join.Approx} {
		hits := 0
		for _, m := range ix.Probe(mode, update[0].Key) {
			if m.Tuple.Key != update[0].Key {
				continue
			}
			hits++
			if m.Tuple.Attrs[0] != "updated-after-upgrade" {
				t.Fatalf("mode %v: resident key answers with stale payload %v", mode, m.Tuple.Attrs)
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
	d2, ix2, _, err := Open(dir, v2FixtureMeta, SyncNone)
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
// appends and (version-3) checkpoints the process dies in, recovery
// opens cleanly on the old or the new state with every fixture tuple
// and every acknowledged write intact.
func TestCrashSweepAcrossSnapshotUpgrade(t *testing.T) {
	resident := make(map[string]string)
	for _, tp := range v2FixtureTuples() {
		resident[tp.Key] = payload(tp)
	}
	crashSweep(t, v2FixtureMeta, resident, func(dir string) { seedV2Fixture(t, dir) })
}
