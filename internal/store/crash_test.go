package store

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptivelink/internal/fault"
	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/vfs"
)

var crashMeta = Meta{Q: 3, Theta: 0.75, Measure: simfn.Jaccard, Shards: 2}

// crashSchedule drives a fixed open/append/checkpoint script against
// fsys until the first failure (the simulated crash kills the process:
// nothing after the failing call runs). resident is the per-key state
// dir already holds (nil for an empty directory). It returns the
// acknowledged per-key state, the in-flight batch that was cut down
// mid-call (nil when the crash hit a checkpoint — checkpoints change no
// logical state), and whether the script ran to completion.
func crashSchedule(fsys vfs.FS, dir string, meta Meta, resident map[string]string) (acked map[string]string, inflight map[string]string, done bool) {
	acked = maps.Clone(resident)
	if acked == nil {
		acked = make(map[string]string)
	}
	batch := func(i int) []relation.Tuple {
		ts := []relation.Tuple{{ID: i, Key: fmt.Sprintf("key-%03d", i), Attrs: []string{fmt.Sprintf("batch-%d", i)}}}
		if i > 0 {
			// Overwrite an earlier key too: last-wins must survive replay.
			ts = append(ts, relation.Tuple{ID: 100 + i, Key: "key-000", Attrs: []string{fmt.Sprintf("rewrite-%d", i)}})
		}
		return ts
	}
	d, ix, _, err := Open(fsys, dir, meta, SyncAlways)
	if err != nil {
		return acked, nil, false
	}
	step := 0
	for _, act := range []string{"a", "a", "c", "a", "c", "a"} {
		switch act {
		case "a":
			b := batch(step)
			step++
			if err := d.Append(b); err != nil {
				m := make(map[string]string)
				for _, t := range b {
					m[t.Key] = t.Attrs[0]
				}
				return acked, m, false
			}
			ix.Upsert(b)
			for _, t := range b {
				acked[t.Key] = t.Attrs[0]
			}
		case "c":
			if err := d.Checkpoint(ix); err != nil {
				return acked, nil, false
			}
		}
	}
	if err := d.Close(); err != nil {
		return acked, nil, false
	}
	return acked, nil, true
}

// TestCrashConsistencySweep simulates a crash at EVERY write-class
// filesystem operation of the schedule (every WAL write/fsync, every
// snapshot write, the checkpoint rename, the directory fsync, the WAL
// reset), plus a torn-write variant of each, and asserts each recovery
// lands on a valid old-or-new state: opens cleanly (never ErrCorrupt),
// holds every acknowledged write, and reflects the in-flight batch
// either completely or not at all.
func TestCrashConsistencySweep(t *testing.T) {
	crashSweep(t, crashMeta, nil, func(string) {})
}

// crashSweep runs the sweep over directories prepared by seed, which
// must leave each holding exactly the resident per-key state.
func crashSweep(t *testing.T, meta Meta, resident map[string]string, seed func(dir string)) {
	// A crash-free run learns the write-op count the sweep iterates over.
	probe := fault.NewSimFS()
	dir := t.TempDir()
	seed(dir)
	if _, _, done := crashSchedule(probe, dir, meta, resident); !done {
		t.Fatal("crash-free schedule did not complete")
	}
	total := probe.WriteOps()
	if total < 15 {
		t.Fatalf("schedule has only %d write ops; the sweep would be trivial", total)
	}
	for _, torn := range []int{-1, 3} {
		for k := 0; k < total; k++ {
			name := fmt.Sprintf("crash-at-%03d-torn-%d", k, torn)
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				seed(dir)
				fs := fault.NewSimFS().CrashAt(k).TornBytes(torn)
				acked, inflight, done := crashSchedule(fs, dir, meta, resident)
				if done {
					t.Fatalf("schedule completed despite crash at op %d", k)
				}
				if !fs.Crashed() {
					t.Fatalf("crash at op %d never fired", k)
				}
				// The process is dead; recovery runs on the real filesystem.
				d, ix, _, err := Open(vfs.OS, dir, meta, SyncAlways)
				if err != nil {
					t.Fatalf("recovery after crash at op %d failed: %v", k, err)
				}
				defer d.Close()
				assertOldOrNew(t, ix, acked, inflight)
			})
		}
	}
}

// payload is the per-key state the sweeps track: a tuple's first attr.
func payload(t relation.Tuple) string {
	if len(t.Attrs) == 0 {
		return ""
	}
	return t.Attrs[0]
}

func assertOldOrNew(t *testing.T, ix *join.ShardedRefIndex, acked, inflight map[string]string) {
	t.Helper()
	recovered := make(map[string]string)
	for ref := 0; ref < ix.Len(); ref++ {
		tp, err := ix.Tuple(ref)
		if err != nil {
			t.Fatalf("Tuple(%d): %v", ref, err)
		}
		recovered[tp.Key] = payload(tp)
	}
	// Track whether the in-flight batch surfaced whole or not at all.
	inflightSeen, inflightMissing := 0, 0
	for k, v := range recovered {
		if av, ok := acked[k]; ok && av == v {
			continue
		}
		if iv, ok := inflight[k]; ok && iv == v {
			inflightSeen++
			continue
		}
		t.Fatalf("recovered %q=%q matches neither the acknowledged state (%q) nor the in-flight batch", k, v, acked[k])
	}
	for k, v := range acked {
		if iv, ok := inflight[k]; ok && recovered[k] == iv {
			continue // superseded by the (new-state) in-flight batch
		}
		if recovered[k] != v {
			t.Fatalf("acknowledged write %q=%q lost: recovered %q", k, v, recovered[k])
		}
	}
	for k, v := range inflight {
		if recovered[k] != v {
			inflightMissing++
		}
	}
	if inflightSeen > 0 && inflightMissing > 0 {
		t.Fatalf("in-flight batch applied partially: %d keys new, %d keys old (a torn frame leaked through replay)", inflightSeen, inflightMissing)
	}
}

// TestWALFsyncPoisoning pins fsyncgate semantics: after a failed fsync
// in SyncAlways mode the append fails AND the log refuses further
// appends with a descriptive error — the possibly-lost frame is never
// silently built upon. A successful checkpoint (which rewrites the
// snapshot from acknowledged state and truncates the log wholesale)
// clears the poison.
func TestWALFsyncPoisoning(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("EIO: lost some dirty pages")
	// Sync #1 is the fresh WAL header's; #2 is the first append's.
	fs := fault.NewSimFS().FailOp(fault.OpSync, 2, boom)
	d, ix, _, err := Open(fs, dir, crashMeta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	b0 := []relation.Tuple{{ID: 0, Key: "alpha", Attrs: []string{"a"}}}
	err = d.Append(b0)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("append over failed fsync = %v, want the injected error", err)
	}
	if !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append error %q does not say the log is poisoned", err)
	}

	// The next append performs NO I/O and still fails, naming the cause.
	err = d.Append([]relation.Tuple{{ID: 1, Key: "beta", Attrs: []string{"b"}}})
	if err == nil || !strings.Contains(err.Error(), "poisoned") || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("append on poisoned log = %v, want a descriptive poisoned error wrapping the fsync failure", err)
	}
	if d.Poisoned() == nil {
		t.Fatal("Dir.Poisoned() nil on a poisoned log")
	}

	// Checkpointing the acknowledged (empty) state truncates the
	// unknowable tail away and heals the log.
	if err := d.Checkpoint(ix); err != nil {
		t.Fatalf("checkpoint on poisoned log: %v", err)
	}
	if d.Poisoned() != nil {
		t.Fatalf("log still poisoned after a successful checkpoint: %v", d.Poisoned())
	}
	if err := d.Append(b0); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	ix.Upsert(b0)

	// And the healed directory recovers the acknowledged state.
	d.Close()
	_, ix2, rec, err := Open(vfs.OS, dir, crashMeta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if rec.WALRecords != 1 || ix2.Len() != 1 {
		t.Fatalf("recovered %d WAL records / %d tuples, want 1/1", rec.WALRecords, ix2.Len())
	}
}

// Orphaned snapshot temp files (a crash between temp write and rename)
// must not break or pollute a reopen: Open sweeps them.
func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	d, ix, _, err := Open(vfs.OS, dir, crashMeta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	b := []relation.Tuple{{ID: 0, Key: "alpha", Attrs: []string{"a"}}}
	if err := d.Append(b); err != nil {
		t.Fatal(err)
	}
	ix.Upsert(b)
	if err := d.Checkpoint(ix); err != nil {
		t.Fatal(err)
	}
	d.Close()

	orphan := filepath.Join(dir, SnapshotFile+".tmp12345")
	if err := os.WriteFile(orphan, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, ix2, _, err := Open(vfs.OS, dir, crashMeta, SyncAlways)
	if err != nil {
		t.Fatalf("open with orphaned temp file: %v", err)
	}
	defer d2.Close()
	if ix2.Len() != 1 {
		t.Fatalf("recovered %d tuples, want 1", ix2.Len())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan %s survived reopen (stat err %v)", orphan, err)
	}
}

// The content digest is stable across the round trips anti-entropy
// relies on: export→digest twice agrees, a snapshot-loaded copy agrees
// with its source, and after both copies apply the same further
// upserts they still agree — so "same digest" means "same content"
// for a replica repaired by full resync, too.
func TestDigestStability(t *testing.T) {
	ix1 := buildIndex(t, 2, 60)
	v1, err := ix1.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	d1 := DigestView(v1)
	if d1.Tuples != ix1.Len() || len(d1.Shards) != 2 || d1.Combined == "" {
		t.Fatalf("digest shape: %+v", d1)
	}
	v1b, err := ix1.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d := DigestView(v1b); d.Combined != d1.Combined {
		t.Fatalf("re-export digest %v != %v", d, d1)
	}

	// Round-trip through the codec (what a resync streams).
	var buf strings.Builder
	if err := WriteSnapshot(&buf, v1); err != nil {
		t.Fatal(err)
	}
	ix2, err := DecodeSnapshot([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := ix2.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if d2 := DigestView(ev2); d2.Combined != d1.Combined {
		t.Fatalf("snapshot-loaded digest %s != source %s", d2.Combined, d1.Combined)
	}

	// Same subsequent writes → same digest on both lineages.
	extra := []relation.Tuple{{ID: 7000, Key: "maria chen 777", Attrs: []string{"late"}}}
	ix1.Upsert(extra)
	ix2.Upsert(extra)
	e1, _ := ix1.ExportSnapshot()
	e2, _ := ix2.ExportSnapshot()
	g1, g2 := DigestView(e1), DigestView(e2)
	if g1.Combined != g2.Combined {
		t.Fatalf("digests diverged after identical writes: %s vs %s", g1.Combined, g2.Combined)
	}
	if g1.Combined == d1.Combined {
		t.Fatal("digest did not change after a write")
	}

	// One content, one digest, however the index came to be: bulk-built,
	// grown by upserts, or loaded from a version-3, 4, 5 or current
	// image. The words are pinned: the digest covers the canonical
	// content stream of the store and the shard sections, so a change to
	// that stream moves it, and replicas on either side of such a change
	// disagree until both have upgraded (README, "Upgrading from snapshot
	// format 4") — moving these words is that decision. Version 5 dropped
	// the q-gram sections and kept the tuple store as it was, so only the
	// combined word moved; version 6 re-encoded the file and kept the
	// stream, so neither did.
	const wantCombined, wantStore = "47fa79c3", "a9680d93"
	tuples := v2FixtureTuples()
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
	loadFixture := func(path string) *join.ShardedRefIndex {
		ix, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	bulkView, _ := bulk.ExportSnapshot()
	buf.Reset()
	if err := WriteSnapshot(&buf, bulkView); err != nil {
		t.Fatal(err)
	}
	curLoaded, err := DecodeSnapshot([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*join.ShardedRefIndex{
		"bulk-built": bulk, "upsert-built": grown,
		"v3-loaded": loadFixture(v3Fixture), "v4-loaded": loadFixture(v4Fixture), "v5-loaded": loadFixture(v5Fixture),
		"current-loaded": curLoaded,
	} {
		v, err := ix.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if d := DigestView(v); d.Combined != wantCombined || d.Store != wantStore {
			t.Errorf("%s index: digest %s (store %s), want %s (store %s)", name, d.Combined, d.Store, wantCombined, wantStore)
		}
	}
}
