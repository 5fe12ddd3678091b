package adaptivelink

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptivelink/internal/stream"
)

// durableTuples is a deterministic reference with near-duplicate keys,
// so exact and approximate probes both have work to do.
func durableTuples(n int) []Tuple {
	rng := rand.New(rand.NewSource(7))
	streets := []string{"via monte bianco", "corso sempione", "piazza duomo", "viale certosa"}
	out := make([]Tuple, 0, n+n/5)
	for i := 0; i < n; i++ {
		out = append(out, Tuple{
			ID:    i,
			Key:   fmt.Sprintf("%s %d", streets[rng.Intn(len(streets))], i),
			Attrs: []string{fmt.Sprintf("attr-%d", i)},
		})
	}
	for i := 0; i < n/5; i++ {
		src := out[rng.Intn(n)].Key
		b := []byte(src)
		b[rng.Intn(len(b))] = 'z'
		out = append(out, Tuple{ID: 5000 + i, Key: string(b), Attrs: []string{"variant"}})
	}
	return out
}

func renderPublic(ms []ProbeMatch) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%d:%q:%v:%.9f:%v;", m.Ref.ID, m.Ref.Key, m.Ref.Attrs, m.Similarity, m.Exact)
	}
	return b.String()
}

// assertIndexEqual holds two indexes to identical probe behaviour over
// every stored key (one-shot escalating probe plus a pure batch pass).
func assertIndexEqual(t *testing.T, want, got *Index, keys []string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	wb, gb := want.ProbeBatch(keys...), got.ProbeBatch(keys...)
	for i, k := range keys {
		if w, g := renderPublic(want.Probe(k)), renderPublic(got.Probe(k)); w != g {
			t.Fatalf("Probe(%q) = %s, want %s", k, g, w)
		}
		if w, g := renderPublic(wb[i]), renderPublic(gb[i]); w != g {
			t.Fatalf("ProbeBatch(%q) = %s, want %s", k, g, w)
		}
	}
}

func keysOf(ts []Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key
	}
	return out
}

// TestOpenRestartRoundTrip is the facade-level restart contract: open,
// ingest, restart, and the reloaded index answers byte-identically —
// first from pure WAL replay, then from snapshot + WAL, then from a
// pure snapshot after a checkpoint.
func TestOpenRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tuples := durableTuples(80)
	keys := keysOf(tuples)
	mem := newTestIndexFrom(t, nil)

	ix, err := Open(dir, IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Durable() {
		t.Fatal("Open returned a non-durable index")
	}
	upsertBoth := func(batch []Tuple) {
		t.Helper()
		if _, _, err := ix.Upsert(batch...); err != nil {
			t.Fatal(err)
		}
		if _, _, err := mem.Upsert(batch...); err != nil {
			t.Fatal(err)
		}
	}
	restart := func() {
		t.Helper()
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		// Zero options: the stored configuration wins.
		ix, err = Open(dir, IndexOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.Options().Shards; got != 2 {
			t.Fatalf("reopened with %d shards, stored 2", got)
		}
		assertIndexEqual(t, mem, ix, keys)
	}

	upsertBoth(tuples[:50])
	if ix.WALRecords() != 1 {
		t.Fatalf("WALRecords = %d, want 1", ix.WALRecords())
	}
	restart() // pure WAL replay

	if err := ix.Save(""); err != nil { // checkpoint in place
		t.Fatal(err)
	}
	if ix.WALRecords() != 0 {
		t.Fatalf("WALRecords after checkpoint = %d", ix.WALRecords())
	}
	if ix.LastSnapshot().IsZero() {
		t.Fatal("LastSnapshot zero after checkpoint")
	}
	upsertBoth(tuples[50:]) // variants + payload refreshes past the snapshot
	upsertBoth([]Tuple{{ID: 9001, Key: tuples[0].Key, Attrs: []string{"refreshed"}}})
	restart() // snapshot + WAL replay

	// Checkpoint, then close: the next reopen replays nothing.
	if err := ix.Save(""); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err = Open(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.WALRecords() != 0 {
		t.Fatalf("WALRecords after checkpoint-and-close reopen = %d", ix.WALRecords())
	}
	assertIndexEqual(t, mem, ix, keys)
	ix.Close()
}

func newTestIndexFrom(t *testing.T, ts []Tuple) *Index {
	t.Helper()
	ix, err := NewIndex(FromTuples(ts), IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestOpenConfigContract pins the compatibility contract: unset fields
// adopt the stored configuration, set-and-different fields are
// descriptive errors.
func TestOpenConfigContract(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir, IndexOptions{Q: 2, Theta: 0.8, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix.Upsert(durableTuples(10)...)
	ix.Close()

	for _, c := range []struct {
		name string
		opts IndexOptions
	}{
		{"q", IndexOptions{Q: 4}},
		{"theta", IndexOptions{Theta: 0.6}},
		{"shards", IndexOptions{Shards: 8}},
		{"measure", IndexOptions{Measure: Dice}},
	} {
		if _, err := Open(dir, c.opts); err == nil || !strings.Contains(err.Error(), "mismatch") {
			t.Fatalf("%s mismatch: err = %v, want configuration mismatch", c.name, err)
		}
	}
	// Matching explicit options are fine.
	ix, err = Open(dir, IndexOptions{Q: 2, Theta: 0.8, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Options()
	if got.Q != 2 || got.Theta != 0.8 || got.Shards != 3 {
		t.Fatalf("resolved options = %+v", got)
	}
	ix.Close()

	if _, err := Open("", IndexOptions{}); err == nil {
		t.Fatal("Open(\"\") accepted")
	}
	if _, err := Open(dir, IndexOptions{Storage: StorageOptions{Dir: "elsewhere"}}); err == nil {
		t.Fatal("conflicting Storage.Dir accepted")
	}
	if _, err := NewIndex(FromTuples(nil), IndexOptions{Storage: StorageOptions{Dir: dir}}); err == nil || !strings.Contains(err.Error(), "Open") {
		t.Fatalf("NewIndex with Storage.Dir: err = %v, want a pointer to Open", err)
	}
}

// TestBulkLoadDurable: BulkLoad persists by writing the snapshot
// directly, refuses occupied directories, and the reloaded index equals
// an in-memory build over the same source.
func TestBulkLoadDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	tuples := durableTuples(120)
	mem, err := NewIndex(FromTuples(tuples), IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := BulkLoad(FromTuples(tuples), IndexOptions{Shards: 2, Storage: StorageOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if !bulk.Durable() || bulk.WALRecords() != 0 {
		t.Fatalf("bulk index durable=%v wal=%d, want durable with an empty log", bulk.Durable(), bulk.WALRecords())
	}
	assertIndexEqual(t, mem, bulk, keysOf(tuples))
	// The bulk-loaded index keeps logging like any durable index.
	extra := Tuple{ID: 8888, Key: "piazza nuova 1", Attrs: []string{"late"}}
	if _, _, err := bulk.Upsert(extra); err != nil {
		t.Fatal(err)
	}
	mem.Upsert(extra)
	bulk.Close()

	if _, err := BulkLoad(FromTuples(tuples), IndexOptions{Storage: StorageOptions{Dir: dir}}); err == nil {
		t.Fatal("BulkLoad into an occupied directory accepted")
	}
	re, err := Open(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, mem, re, append(keysOf(tuples), extra.Key))
	re.Close()

	// In-memory BulkLoad: just the fast constructor.
	fast, err := BulkLoad(FromTuples(tuples), IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Durable() {
		t.Fatal("in-memory BulkLoad claims durability")
	}
	mem2, _ := NewIndex(FromTuples(tuples), IndexOptions{Shards: 2})
	assertIndexEqual(t, mem2, fast, keysOf(tuples))
	// NewIndex is the same build, and the upsert path (WAL replay, live
	// maintenance) arrives at the same index: byte-identical snapshots.
	ups, _ := NewIndex(FromTuples(nil), IndexOptions{Shards: 2})
	drained, _ := stream.Adopt(FromTuples(tuples)) // the source renumbers IDs
	ups.Upsert(drained...)
	want, err := fast.ExportSnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*Index{"NewIndex": mem2, "Upsert": ups} {
		if got, err := ix.ExportSnapshotBytes(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s snapshot differs from BulkLoad's (err %v, %d vs %d bytes)", name, err, len(got), len(want))
		}
	}
}

// TestSaveExportsInMemoryIndex: Save(dir) turns an in-memory index into
// an openable directory without re-homing the index.
func TestSaveExportsInMemoryIndex(t *testing.T) {
	tuples := durableTuples(40)
	mem, err := NewIndex(FromTuples(tuples), IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Save(""); err == nil {
		t.Fatal("Save(\"\") on an in-memory index accepted")
	}
	dir := filepath.Join(t.TempDir(), "export")
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	if mem.Durable() {
		t.Fatal("Save re-homed the in-memory index")
	}
	if err := mem.Save(dir); err == nil {
		t.Fatal("Save over an existing index directory accepted")
	}
	re, err := Open(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, mem, re, keysOf(tuples))
	re.Close()
}

// TestClosedIndexWrites: writes after Close fail with ErrIndexClosed;
// probes keep working; double Close is a no-op.
func TestClosedIndexWrites(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuples := durableTuples(10)
	if _, _, err := ix.Upsert(tuples...); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Upsert(tuples[0]); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Upsert after Close: %v, want ErrIndexClosed", err)
	}
	if err := ix.Save(""); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Save after Close: %v, want ErrIndexClosed", err)
	}
	if got := ix.Probe(tuples[0].Key); len(got) != 1 {
		t.Fatalf("probe after Close = %+v", got)
	}
}

// TestClosedInMemoryIndexWrites: Close fences an in-memory index's
// writes as it does a durable one's — an Upsert after it fails with
// ErrIndexClosed and applies nothing.
func TestClosedInMemoryIndexWrites(t *testing.T) {
	ix, err := BulkLoad(FromTuples([]Tuple{{ID: 1, Key: "lago di garda"}}), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Upsert(Tuple{ID: 2, Key: "lago maggiore"}); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Upsert after Close: %v, want ErrIndexClosed", err)
	}
	if n := ix.Len(); n != 1 {
		t.Fatalf("Len after a refused Upsert = %d, want 1", n)
	}
}

// TestSyncNonePolicy: a SyncNone index still round-trips through a
// clean Close (the policy only changes crash guarantees, not shutdown).
func TestSyncNonePolicy(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir, IndexOptions{Storage: StorageOptions{WALSync: SyncNone}})
	if err != nil {
		t.Fatal(err)
	}
	tuples := durableTuples(20)
	if _, _, err := ix.Upsert(tuples...); err != nil {
		t.Fatal(err)
	}
	ix.Close()
	re, err := Open(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != ix.Len() {
		t.Fatalf("reloaded Len = %d, want %d", re.Len(), ix.Len())
	}
	re.Close()
}

// TestSaveOwnDirCheckpoints: Save(path) naming the index's own
// directory — even through a relative or unnormalised spelling — is a
// checkpoint in place, not an export-refused-as-occupied.
func TestSaveOwnDirCheckpoints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "home")
	ix, err := Open(dir, IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, _, err := ix.Upsert(durableTuples(10)...); err != nil {
		t.Fatal(err)
	}
	if ix.WALRecords() != 1 {
		t.Fatalf("WALRecords = %d, want 1", ix.WALRecords())
	}
	unnormalised := filepath.Join(dir, "..", filepath.Base(dir))
	if err := ix.Save(unnormalised); err != nil {
		t.Fatalf("Save(own dir) = %v, want in-place checkpoint", err)
	}
	if ix.WALRecords() != 0 {
		t.Fatalf("WALRecords after checkpoint = %d, want 0", ix.WALRecords())
	}
}

// TestIsIndexDir: stored indexes are recognised without loading them,
// empty or absent directories are simply false, and unreadable
// artifacts are an error.
func TestIsIndexDir(t *testing.T) {
	if ok, err := IsIndexDir(filepath.Join(t.TempDir(), "absent")); ok || err != nil {
		t.Fatalf("IsIndexDir(absent) = %v, %v", ok, err)
	}
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Open(dir, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if ok, err := IsIndexDir(dir); !ok || err != nil {
		t.Fatalf("IsIndexDir(stored) = %v, %v, want true", ok, err)
	}
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "index.snap"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := IsIndexDir(bad); err == nil {
		t.Fatal("IsIndexDir over a corrupt artifact succeeded")
	}
}
