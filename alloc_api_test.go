//go:build !race

package adaptivelink

// Allocation-regression pins for the public session probe path, run by
// `make alloc`. The observability layer (PR 8) must keep the no-explain
// path exactly as lean as before it existed: the decision sink is nil
// and the explain dispatch is a single pointer test, so these pins hold
// with tracing enabled at default sampling in the service above.
// Below them, the footprint pins: what a resident reference tuple and a
// checkpoint of it cost in heap bytes, at equal content.
// Excluded under -race, whose instrumentation perturbs counts.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"adaptivelink/internal/store"
)

func allocAPIIndex(t testing.TB) (*Index, string, string) {
	t.Helper()
	ts := make([]Tuple, 64)
	for i := range ts {
		ts[i] = Tuple{ID: i, Key: fmt.Sprintf("VIA MONTE ROSA %d NORD %d", i, i%7)}
	}
	ix, err := NewIndex(FromTuples(ts), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ix, "VIA MONTE ROSA 7 NORD 0", "PIAZZA INESISTENTE 99 XQ"
}

// A no-explain exact-only probe that misses touches no result slice and
// is pinned allocation-free end to end through the public API.
func TestAllocSessionExactMissZero(t *testing.T) {
	ix, _, miss := allocAPIIndex(t)
	sess, err := ix.NewSession(SessionOptions{Strategy: ExactOnly})
	if err != nil {
		t.Fatal(err)
	}
	sess.Probe(miss) // warm
	if avg := testing.AllocsPerRun(200, func() { sess.Probe(miss) }); avg != 0 {
		t.Errorf("exact-only miss: %.2f allocs/op, want 0", avg)
	}
}

// sessionHitAllocBudget is the documented budget of a no-explain probe
// that hits: the one allocation materialising the result, the engine's
// match slice, which the caller receives as is (ProbeMatch is the
// engine's match type). The probe and control-loop work itself stays
// allocation-free.
const sessionHitAllocBudget = 1.0

func TestAllocSessionProbeBudget(t *testing.T) {
	ix, hit, _ := allocAPIIndex(t)
	for name, opts := range map[string]SessionOptions{
		"exact-only": {Strategy: ExactOnly},
		"adaptive":   {},
	} {
		sess, err := ix.NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		sess.Probe(hit) // warm
		if avg := testing.AllocsPerRun(200, func() { sess.Probe(hit) }); avg > sessionHitAllocBudget {
			t.Errorf("%s hit: %.2f allocs/op, budget %v", name, avg, sessionHitAllocBudget)
		}
	}
}

// residentBytesBudget bounds the live heap a built index holds per
// reference tuple at 20k rows: the tuple — its key and attribute bytes,
// which the index owns, its entry and attribute headers — its global
// ref, its slot in the exact index and its postings — one entry in each
// and nothing beside them. 199 measured, margin 11. Tuple headers and a
// string-keyed exact map over the caller's strings cost 217 without
// counting those bytes; postings stored as flat int32 lists and an
// exact index of one-element ref slices 321; holding the sorted
// signature, a second key map, a key vector and a second tuple store as
// well 668.
const residentBytesBudget = 210

// exactOnlyResidentBytesBudget bounds the same for an index no
// approximate probe has reached: the tuple, its global ref and its
// exact-index slot. 113 measured, bytes owned included, margin 12;
// tuple headers and a string-keyed exact map cost 130 without them, the
// exact index of one-element ref slices 178. The q-gram structures are
// built by a shard's first approximate probe; building them eagerly
// cost ~400 here.
const exactOnlyResidentBytesBudget = 125

// churnBuiltBytesBudget and churnExactOnlyBytesBudget bound the same
// after the upsert churn of TestAllocResidentBytesAfterUpserts: 190 and
// 110 measured, bytes owned and the replacements' dead bytes awaiting
// compaction included, margins 15 and 10. Tuple headers and string-keyed
// exact maps cost 198 and 117 without the bytes; flat int32 postings
// (append slack, lists copied by the first append of a generation) and
// one-element ref slices 337 and 171.
const (
	churnBuiltBytesBudget     = 205
	churnExactOnlyBytesBudget = 120
)

// residentBytesPerTuple returns the live heap bytes per tuple an index
// of rows reference tuples holds, after one approximate probe if built.
func residentBytesPerTuple(t *testing.T, rows int, built bool) float64 {
	tuples, opts := footprintTuples(t, rows)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := NewIndex(FromTuples(tuples), opts)
	if err != nil {
		t.Fatal(err)
	}
	if built {
		sess, err := ix.NewSession(SessionOptions{Strategy: ApproximateOnly})
		if err != nil {
			t.Fatal(err)
		}
		sess.Probe(tuples[0].Key)
		if st := ix.EngineStats(); st.QGramBuiltShards != opts.Shards {
			t.Fatalf("%d of %d shards built after an approximate probe", st.QGramBuiltShards, opts.Shards)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tuples)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(ix.Len())
}

func TestAllocResidentBytesPerTuple(t *testing.T) {
	small, large := residentBytesPerTuple(t, 20_000, true), residentBytesPerTuple(t, 200_000, true)
	t.Logf("resident heap bytes per tuple, built: %.0f at 20k rows, %.0f at 200k rows", small, large)
	if small > residentBytesBudget {
		t.Errorf("%.0f resident bytes per tuple at 20k rows, budget %d", small, residentBytesBudget)
	}
	if large > small {
		t.Errorf("resident bytes per tuple grow with the reference: %.0f at 20k rows, %.0f at 200k rows", small, large)
	}
}

// TestAllocExactOnlyResidentBytesPerTuple pins what lazy q-gram
// maintenance saves an index that is only ever probed exactly.
func TestAllocExactOnlyResidentBytesPerTuple(t *testing.T) {
	small, large := residentBytesPerTuple(t, 20_000, false), residentBytesPerTuple(t, 200_000, false)
	t.Logf("resident heap bytes per tuple, exact-only: %.0f at 20k rows, %.0f at 200k rows", small, large)
	if small > exactOnlyResidentBytesBudget {
		t.Errorf("%.0f exact-only resident bytes per tuple at 20k rows, budget %d", small, exactOnlyResidentBytesBudget)
	}
	if large > small {
		t.Errorf("exact-only resident bytes per tuple grow with the reference: %.0f at 20k rows, %.0f at 200k rows", small, large)
	}
}

// churnBatches is the repository benchmark's single_adaptive upsert
// phase: 1,768 batches of 16 tuples, 8 keys new to the index and 8
// payload replacements of resident keys, taking 20k rows to 34,144.
const churnBatches = 1768

// residentBytesAfterUpserts returns the live heap bytes per resident
// tuple of a 20k-row index — built by one approximate probe, or never
// probed approximately — after the churn phase. The batches are
// generated before the first heap reading, so only the index counts.
func residentBytesAfterUpserts(t *testing.T, built bool) float64 {
	const rows = 20_000
	all, opts := footprintTuples(t, rows+8*churnBatches)
	tuples, fresh := all[:rows], all[rows:]
	work := make([][]Tuple, churnBatches)
	for b := range work {
		batch := append(make([]Tuple, 0, 16), fresh[8*b:8*b+8]...)
		for j := range 8 {
			old := tuples[(b*7919+j*104729)%rows]
			batch = append(batch, Tuple{ID: old.ID, Key: old.Key, Attrs: []string{"v" + strconv.Itoa(b+1)}})
		}
		work[b] = batch
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := NewIndex(FromTuples(tuples), opts)
	if err != nil {
		t.Fatal(err)
	}
	if built {
		sess, err := ix.NewSession(SessionOptions{Strategy: ApproximateOnly})
		if err != nil {
			t.Fatal(err)
		}
		sess.Probe(tuples[0].Key)
	}
	for _, batch := range work {
		if ins, upd, err := ix.Upsert(batch...); err != nil || ins != 8 || upd != 8 {
			t.Fatalf("batch applied as %d inserts / %d updates (%v), want 8 / 8", ins, upd, err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(all)
	runtime.KeepAlive(work)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(ix.Len())
}

// TestAllocResidentBytesAfterUpserts pins the footprint the at-load
// pins cannot see: what append slack, copied lists and grown tails add
// under the benchmark's churn.
func TestAllocResidentBytesAfterUpserts(t *testing.T) {
	built, exact := residentBytesAfterUpserts(t, true), residentBytesAfterUpserts(t, false)
	t.Logf("resident heap bytes per tuple after %d upsert batches: %.0f built, %.0f exact-only", churnBatches, built, exact)
	if built > churnBuiltBytesBudget {
		t.Errorf("%.0f resident bytes per tuple after the churn, built, budget %d", built, churnBuiltBytesBudget)
	}
	if exact > churnExactOnlyBytesBudget {
		t.Errorf("%.0f resident bytes per tuple after the churn, exact-only, budget %d", exact, churnExactOnlyBytesBudget)
	}
}

// checkpointBytesBudget bounds what a steady-state version-6 checkpoint
// allocates per tuple at 44k rows: 0.04 measured, a few fixed-size
// buffers, since the encoder walks the shard stores in ref order by
// merging their member refs (join.SnapshotView.Store) and keeps
// nothing per tuple. A view that gathered the store instead cost a
// 48-byte tuple header per tuple, 50 measured (the budget was 56). The
// encoding is staged in pooled buffers, so the second checkpoint finds
// them warm, and no q-gram section is derived: deriving them cost 66,
// exporting and staging a whole-index copy 201.
const checkpointBytesBudget = 1

func TestAllocCheckpointBytesPerTuple(t *testing.T) {
	tuples, opts := footprintTuples(t, 44_000)
	opts.Storage = StorageOptions{Dir: t.TempDir(), WALSync: SyncNone}
	ix, err := BulkLoad(FromTuples(tuples), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	// The second checkpoint must find what the first pooled: on the same
	// P (a pool's fast slot is per-P) and with no collection in between
	// (two would empty the pool).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := ix.Save(""); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ix.Save(""); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perTuple := float64(after.TotalAlloc-before.TotalAlloc) / float64(ix.Len())
	t.Logf("second checkpoint allocated %.2f bytes per tuple", perTuple)
	if perTuple > checkpointBytesBudget {
		t.Errorf("second checkpoint allocated %.2f bytes per tuple, budget %d", perTuple, checkpointBytesBudget)
	}
}

// snapshotBytesBudget bounds the version-6 snapshot file per tuple at
// 20k rows of generated keys: the tuple store (id delta, key, attrs and
// their varint lengths) and one delta-coded global ref, ~50 bytes
// measured, plus a margin of 8. Version 5's fixed-width ids, offsets
// and refs made it ~72, and the q-gram sections a version-4 snapshot
// stored beside them ~201.
const snapshotBytesBudget = 58

func TestAllocSnapshotBytesPerTuple(t *testing.T) {
	tuples, opts := footprintTuples(t, 20_000)
	dir := t.TempDir()
	opts.Storage = StorageOptions{Dir: dir, WALSync: SyncNone}
	ix, err := BulkLoad(FromTuples(tuples), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	fi, err := os.Stat(filepath.Join(dir, store.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	perTuple := float64(fi.Size()) / float64(ix.Len())
	t.Logf("snapshot holds %.1f bytes per tuple", perTuple)
	if perTuple > snapshotBytesBudget {
		t.Errorf("snapshot holds %.1f bytes per tuple, budget %d", perTuple, snapshotBytesBudget)
	}
}

// snapshotLoadBytesBudget bounds what a load of a 20k-row version-6
// image allocates per tuple, image to index: the shard stores the build
// copies each tuple's bytes into straight from the image, global refs
// and exact indexes, and the build's key homes (117 measured, margin
// 7). The image is read by forward cursors over its columns, and its
// member refs checked off one over their section. A per-tuple table of
// where each tuple's fields lie in the image, with the member refs
// decoded into an arena, allocated 154; decoding the image into tuples
// first, then copying those, 247; the shards adopting the decoded
// tuples 232; version 5's intermediate id and offset tables 273, exact
// indexes of one-element ref slices and int global refs 398. It is what
// a durable cold start allocates before the log replay, so the build's
// transients (key homes, per-shard goroutines) count against it.
const snapshotLoadBytesBudget = 124

func TestAllocSnapshotLoadBytesPerTuple(t *testing.T) {
	tuples, opts := footprintTuples(t, 20_000)
	ix, err := NewIndex(FromTuples(tuples), opts)
	if err != nil {
		t.Fatal(err)
	}
	img, err := ix.ExportSnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	perTuple := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := store.DecodeSnapshot(img); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perTuple = min(perTuple, float64(after.TotalAlloc-before.TotalAlloc)/float64(ix.Len()))
	}
	t.Logf("a snapshot load allocated %.0f bytes per tuple", perTuple)
	if perTuple > snapshotLoadBytesBudget {
		t.Errorf("a snapshot load allocated %.0f bytes per tuple, budget %d", perTuple, snapshotLoadBytesBudget)
	}
}

// bulkLoadAllocBudget bounds the allocations of an in-memory BulkLoad of
// 20k generated rows through FromTuples: the presized rows and their one
// attribute arena, then the build's per-shard stores, indexes and
// normalized keys (~480 measured). A per-tuple allocation in the input
// path (a copied attribute slice per row, as relation.Append made)
// would cost 20k more.
const bulkLoadAllocBudget = 1000

func TestAllocBulkLoadFromTuples(t *testing.T) {
	tuples, opts := footprintTuples(t, 20_000)
	avg := testing.AllocsPerRun(3, func() {
		ix, err := BulkLoad(FromTuples(tuples), opts)
		if err != nil || ix.Len() != len(tuples) {
			t.Fatalf("BulkLoad: %v", err)
		}
	})
	t.Logf("in-memory BulkLoad of %d rows: %.0f allocs", len(tuples), avg)
	if avg > bulkLoadAllocBudget {
		t.Errorf("in-memory BulkLoad of %d rows: %.0f allocs, budget %d", len(tuples), avg, bulkLoadAllocBudget)
	}
}

// emptyUpsertBytesBudget bounds what an upsert of 10k generated tuples
// into an empty durable index allocates per tuple, in the shape a
// routed create's node loads its group's rows (profile "", 2 shards):
// the log frame, the homes and member refs, the shard stores (the rows'
// bytes copied in) and exact tables, 186 measured, plus a margin. Before such an upsert was a bulk
// load it took the per-tuple path, cloning the batch, decomposing no
// key but holding a scratch key per tuple, and growing the log frame
// by appends: 826. The pin may not exceed the create pin
// (createBytesBudget in internal/service, 310), which also pays for
// decoding the body.
const emptyUpsertBytesBudget = 200

func TestAllocEmptyUpsertBytesPerTuple(t *testing.T) {
	tuples, _ := footprintTuples(t, 10_000)
	ix, err := Open(filepath.Join(t.TempDir(), "ix"), IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := ix.Upsert(tuples...); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perTuple := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tuples))
	t.Logf("an upsert into an empty durable index allocated %.0f bytes per tuple", perTuple)
	if perTuple > emptyUpsertBytesBudget {
		t.Errorf("an upsert into an empty durable index allocated %.0f bytes per tuple, budget %d", perTuple, emptyUpsertBytesBudget)
	}
}
