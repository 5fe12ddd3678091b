package adaptivelink

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"adaptivelink/internal/join"
)

// TestDigestExportRestoreRoundTrip pins the repair surface: a restored
// replica reports the source's digest, keeps answering probes, and an
// imported blank replica adopts the stored configuration.
func TestDigestExportRestoreRoundTrip(t *testing.T) {
	data, err := GenerateTestData(7, 120, 40, PatternFewHigh, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewIndex(FromTuples(data.Parent), IndexOptions{Shards: 2, Profile: "latin"})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := src.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1.Tuples == 0 || d1.Combined == "" || len(d1.Shards) != 2 || d1.WALRecords != 0 {
		t.Fatalf("digest shape: %+v", d1)
	}

	blob, err := src.ExportSnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	// A diverged replica converges to the source's digest after restore.
	stale, err := NewIndex(FromTuples(data.Parent[:50]), IndexOptions{Shards: 4, Profile: "latin"})
	if err != nil {
		t.Fatal(err)
	}
	if ds, _ := stale.Digest(); ds.Combined == d1.Combined {
		t.Fatal("stale replica already matches; fixture is degenerate")
	}
	if err := stale.RestoreSnapshot(blob); err != nil {
		t.Fatalf("restore onto in-memory replica (shard adoption): %v", err)
	}
	d2, err := stale.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d2.Combined != d1.Combined {
		t.Fatalf("restored digest %s != source %s", d2.Combined, d1.Combined)
	}
	key := data.Parent[3].Key
	if got, want := len(stale.Probe(key)), len(src.Probe(key)); got != want || got == 0 {
		t.Fatalf("restored probe %q: %d matches, source %d", key, got, want)
	}

	// A blank replacement bootstraps via ImportSnapshot, adopting config.
	imp, err := ImportSnapshot(blob, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if imp.Options().Profile != "latin" || imp.Options().Shards != 2 {
		t.Fatalf("imported options %+v did not adopt stored config", imp.Options())
	}
	if d3, _ := imp.Digest(); d3.Combined != d1.Combined {
		t.Fatalf("imported digest %s != source %s", d3.Combined, d1.Combined)
	}

	// Mismatched matching configuration is refused, named in the error.
	if err := stale.RestoreSnapshot(blob[:len(blob)-1]); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	other, err := NewIndex(FromTuples(nil), IndexOptions{Q: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreSnapshot(blob); err == nil || !strings.Contains(err.Error(), "q 4 vs 3") {
		t.Fatalf("q-mismatch restore = %v, want a q mismatch error", err)
	}
	if _, err := ImportSnapshot(blob, IndexOptions{Q: 4}); err == nil {
		t.Fatal("q-mismatch import accepted")
	}
}

// wrappedResident is a backend the facade cannot snapshot: a decorator
// over a local engine, as a remote index or a timing wrapper would be.
type wrappedResident struct{ join.Resident }

// TestRestoreSnapshotRefusesRemote pins that a remote index refuses a
// restore like the rest of the snapshot surface, rather than swapping a
// local engine in under its resident.
func TestRestoreSnapshotRefusesRemote(t *testing.T) {
	data, err := GenerateTestData(5, 60, 10, PatternFewHigh, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewIndex(FromTuples(data.Parent), IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := src.ExportSnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	backend, err := NewIndex(FromTuples(data.Parent[:20]), IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := wrappedResident{backend.resident()}
	remote, err := NewRemoteIndex(res, IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.RestoreSnapshot(blob); !errors.Is(err, errors.ErrUnsupported) || !strings.Contains(err.Error(), "does not snapshot") {
		t.Fatalf("RestoreSnapshot on a remote index = %v, want a does-not-snapshot error wrapping errors.ErrUnsupported", err)
	}
	if _, ok := remote.resident().(wrappedResident); !ok {
		t.Fatalf("restore replaced the remote resident with %T", remote.resident())
	}
	if remote.Len() != 20 {
		t.Fatalf("Len = %d after a refused restore, want 20", remote.Len())
	}
}

// TestRestoreSnapshotDurable pins the durable restore path: the
// restored state is checkpointed (WAL reset) and survives a reopen.
func TestRestoreSnapshotDurable(t *testing.T) {
	data, err := GenerateTestData(11, 80, 10, PatternFewHigh, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewIndex(FromTuples(data.Parent), IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := src.ExportSnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := src.Digest()

	dir := t.TempDir()
	dst, err := Open(dir, IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dst.Upsert(data.Parent[0]); err != nil {
		t.Fatal(err)
	}
	if err := dst.RestoreSnapshot(blob); err != nil {
		t.Fatalf("durable restore: %v", err)
	}
	if got, _ := dst.Digest(); got.Combined != want.Combined {
		t.Fatalf("restored digest %s != source %s", got.Combined, want.Combined)
	}
	if dst.WALRecords() != 0 {
		t.Fatalf("restore left %d WAL records; checkpoint should have reset the log", dst.WALRecords())
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, _ := re.Digest(); got.Combined != want.Combined {
		t.Fatalf("reopened digest %s != restored %s", got.Combined, want.Combined)
	}
}

// TestImportSnapshotDurable pins ImportSnapshot with Storage.Dir to
// BulkLoad's persist step: the imported index is durable from birth, its
// next upsert is logged, the directory reopens to byte-identical state
// and answers, and a directory already holding an index is refused.
func TestImportSnapshotDurable(t *testing.T) {
	tuples := durableTuples(120)
	src, err := NewIndex(FromTuples(tuples), IndexOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := src.ExportSnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "imported")
	imp, err := ImportSnapshot(blob, IndexOptions{Storage: StorageOptions{Dir: dir, WALSync: SyncNone}})
	if err != nil {
		t.Fatal(err)
	}
	if !imp.Durable() || imp.WALRecords() != 0 || imp.LastSnapshot().IsZero() {
		t.Fatalf("imported index: durable %v, %d WAL records, last snapshot %v", imp.Durable(), imp.WALRecords(), imp.LastSnapshot())
	}
	if imp.RecoveryInfo().Recovered {
		t.Fatal("a freshly imported index reports a recovery")
	}
	if _, _, err := imp.Upsert(Tuple{ID: 9000, Key: "passo dello stelvio 48", Attrs: []string{"after import"}}); err != nil {
		t.Fatal(err)
	}
	if imp.WALRecords() != 1 {
		t.Fatalf("upsert after import logged %d records, want 1", imp.WALRecords())
	}
	want, err := imp.ExportSnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := imp.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if ri := re.RecoveryInfo(); ri.SnapshotTuples != src.Len() || ri.WALBatchesReplayed != 1 {
		t.Fatalf("reopen recovered %+v, want the %d imported tuples plus 1 batch", ri, src.Len())
	}
	got, err := re.ExportSnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reopened index exports different bytes than the imported one held")
	}
	keys := []string{"passo dello stelvio 48", "passo dello stelvia 48"}
	for _, tp := range tuples {
		keys = append(keys, tp.Key, tp.Key+"x")
	}
	assertIndexEqual(t, imp, re, keys)

	if _, err := ImportSnapshot(blob, IndexOptions{Storage: StorageOptions{Dir: dir}}); err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("import into an occupied directory = %v, want refusal", err)
	}
}
