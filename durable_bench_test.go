package adaptivelink

// Durability benchmarks: shapes for profiling while you work (`make
// bench` runs one iteration of each; nothing records or gates them —
// end to end the same costs are setup_s, cold_start_snapshot_s and
// upsert_tuples_per_s of the durable_restart workload in
// BENCHMARK.json). Two comparisons, each as a pair:
//
//   - Cold start: Open on a snapshotted directory (load = sequential
//     read + slice reconstruction, then one probe) versus the path it
//     replaces — re-parsing the reference CSV and rebuilding the index
//     through the bulk builder. BenchmarkStoreColdStartOpen vs
//     BenchmarkStoreColdStartReindexCSV.
//   - Ingest: BulkLoad of N rows straight into a snapshot versus the
//     same N rows as N single Upserts through the write-ahead log.
//     BenchmarkStoreBulkLoad vs BenchmarkStoreUpsertSingles, both
//     reporting rows/s. SyncNone keeps fsync out of the comparison: the
//     bulk path must win on build work alone.

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"adaptivelink/internal/store"
)

// storeBenchRows sizes the cold-start pair; storeBenchIngestRows the
// bulk-vs-singles pair (single upserts pay per-batch maintenance, so
// the pair uses a size where one iteration stays in tens of ms).
const (
	storeBenchRows       = 10000
	storeBenchIngestRows = 2000
)

func storeBenchTuples(n int) []Tuple {
	keys := benchKeys(n)
	ts := make([]Tuple, n)
	for i, k := range keys {
		// Disambiguate: benchKeys may repeat a generated name, and the
		// resident store is keyed (newest wins); a suffix keeps the
		// indexed size equal to n on every path being compared.
		ts[i] = Tuple{ID: i + 1, Key: k + " " + strconv.Itoa(i), Attrs: []string{"attr " + strconv.Itoa(i%97)}}
	}
	return ts
}

func storeBenchCSV(tuples []Tuple) []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write([]string{"location", "attr"})
	for _, t := range tuples {
		w.Write([]string{t.Key, t.Attrs[0]})
	}
	w.Flush()
	return buf.Bytes()
}

// BenchmarkStoreColdStartOpen is restart time-to-first-probe: open the
// stored index (snapshot load, empty log) and answer one probe.
func BenchmarkStoreColdStartOpen(b *testing.B) {
	tuples := storeBenchTuples(storeBenchRows)
	dir := b.TempDir()
	ix, err := BulkLoad(FromTuples(tuples), IndexOptions{Storage: StorageOptions{Dir: dir}})
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		b.Fatal(err)
	}
	probe := tuples[storeBenchRows/2].Key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := Open(dir, IndexOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ms := ix.Probe(probe); len(ms) == 0 {
			b.Fatal("cold index missed a stored key")
		}
		ix.Close()
	}
	b.ReportMetric(float64(storeBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStoreColdStartReindexCSV is the restart path a snapshot
// replaces: parse the reference CSV, rebuild the index from scratch
// (through the bulk builder — the fastest rebuild available), answer
// one probe.
func BenchmarkStoreColdStartReindexCSV(b *testing.B) {
	tuples := storeBenchTuples(storeBenchRows)
	raw := storeBenchCSV(tuples)
	probe := tuples[storeBenchRows/2].Key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, _, err := LoadRelationCSV(bytes.NewReader(raw), "bench.csv", "location")
		if err != nil {
			b.Fatal(err)
		}
		ix, err := BulkLoad(FromTuples(loaded), IndexOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ms := ix.Probe(probe); len(ms) == 0 {
			b.Fatal("rebuilt index missed a stored key")
		}
	}
	b.ReportMetric(float64(storeBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStoreBulkLoad ingests N rows through the bulk path and
// persists them by writing the snapshot directly.
func BenchmarkStoreBulkLoad(b *testing.B) {
	tuples := storeBenchTuples(storeBenchIngestRows)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, fmt.Sprintf("bulk%d", i))
		ix, err := BulkLoad(FromTuples(tuples), IndexOptions{
			Storage: StorageOptions{Dir: dir, WALSync: SyncNone},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(storeBenchIngestRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStoreUpsertSingles ingests the same N rows as N acknowledged
// single-tuple Upserts through the write-ahead log.
func BenchmarkStoreUpsertSingles(b *testing.B) {
	tuples := storeBenchTuples(storeBenchIngestRows)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, fmt.Sprintf("single%d", i))
		ix, err := Open(dir, IndexOptions{Storage: StorageOptions{WALSync: SyncNone}})
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tuples {
			if _, _, err := ix.Upsert(t); err != nil {
				b.Fatal(err)
			}
		}
		if err := ix.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(storeBenchIngestRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// footprintTuples generates the repository benchmark's kind of
// reference: rows uniform parent keys, indexed under the standard
// profile in 4 shards.
func footprintTuples(t testing.TB, rows int) ([]Tuple, IndexOptions) {
	t.Helper()
	data, err := GenerateTestData(42, rows, 1, PatternUniform, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	return data.Parent, IndexOptions{Shards: 4, Profile: "standard"}
}

// BenchmarkCheckpoint is one in-place checkpoint of references of two
// sizes. B/op is what the footprint pin bounds per tuple: a few
// fixed-size buffers, nothing per tuple; the encoding is staged in
// pooled buffers.
func BenchmarkCheckpoint(b *testing.B) {
	for _, rows := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("%dk", rows/1000), func(b *testing.B) {
			tuples, opts := footprintTuples(b, rows)
			opts.Storage = StorageOptions{Dir: b.TempDir(), WALSync: SyncNone}
			ix, err := BulkLoad(FromTuples(tuples), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Save(""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotLoad is one load of the same references' snapshot
// images: decode plus index build, what a durable cold start does before
// replaying its log. B/op is what the load pin bounds per tuple. After
// the timed loop one untimed load from a file reports what a load
// leaves on the heap: live-B/tuple is the index it built, dead-B/tuple
// what it read and threw away (the image, the build's transients) and
// no collection has yet reclaimed.
func BenchmarkSnapshotLoad(b *testing.B) {
	for _, rows := range []int{20_000, 200_000} {
		b.Run(fmt.Sprintf("%dk", rows/1000), func(b *testing.B) {
			tuples, opts := footprintTuples(b, rows)
			ix, err := NewIndex(FromTuples(tuples), opts)
			if err != nil {
				b.Fatal(err)
			}
			img, err := ix.ExportSnapshotBytes()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.DecodeSnapshot(img); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			live, dead := loadLeftovers(b, img)
			b.ReportMetric(live/float64(rows), "live-B/tuple")
			b.ReportMetric(dead/float64(rows), "dead-B/tuple")
		})
	}
}

// loadLeftovers loads img once from a file, as a cold start does, and
// returns the bytes the load left live — the heap after a forced
// collection, less the heap before the load — and dead: the heap
// objects right after the load, less the live heap.
func loadLeftovers(b *testing.B, img []byte) (live, dead float64) {
	path := filepath.Join(b.TempDir(), store.SnapshotFile)
	if err := os.WriteFile(path, img, 0o644); err != nil {
		b.Fatal(err)
	}
	var before, loaded, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := store.ReadSnapshotFile(path)
	if err != nil {
		b.Fatal(err)
	}
	runtime.ReadMemStats(&loaded)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ix)
	live = float64(after.HeapAlloc) - float64(before.HeapAlloc)
	return live, float64(loaded.HeapAlloc) - float64(after.HeapAlloc)
}
