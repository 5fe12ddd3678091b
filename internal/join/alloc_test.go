//go:build !race

package join

// Allocation-regression tests for the dictionary-encoded probe hot
// path, run by `make alloc` (and therefore `make check`). The file is
// excluded under the race detector, whose instrumentation perturbs
// allocation counts; the same tests' correctness twins run everywhere.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"adaptivelink/internal/relation"
)

// allocWorkload builds a resident index with enough keys that probes
// exercise real posting lists, plus probe keys for the hit, variant-hit
// and miss shapes.
func allocWorkload(t testing.TB, shards int) (*ShardedRefIndex, []string) {
	t.Helper()
	idx, err := NewShardedRefIndex(Defaults(), shards)
	if err != nil {
		t.Fatal(err)
	}
	var tuples []relation.Tuple
	for i := 0; i < 64; i++ {
		tuples = append(tuples, relation.Tuple{ID: i, Key: fmt.Sprintf("VIA MONTE ROSA %d NORD %d", i, i%7)})
	}
	idx.Upsert(tuples)
	return idx, []string{
		"VIA MONTE ROSA 7 NORD 0",  // exact hit
		"VIA MONTE ROSA 7 NORD 9",  // variant: approx hit, exact miss
		"PIAZZA INESISTENTE 99 XQ", // miss
	}
}

// The exact resident probe is pinned at zero allocations per op: one
// atomic snapshot load, one hash lookup, appends into a caller-owned
// buffer.
func TestAllocExactProbeZero(t *testing.T) {
	for _, shards := range []int{1, 4} {
		idx, probes := allocWorkload(t, shards)
		dst := make([]RefMatch, 0, 16)
		for _, key := range probes {
			dst = idx.AppendProbeExact(dst[:0], key) // warm
			avg := testing.AllocsPerRun(200, func() {
				dst = idx.AppendProbeExact(dst[:0], key)
			})
			if avg != 0 {
				t.Errorf("shards=%d exact probe %q: %.2f allocs/op, want 0", shards, key, avg)
			}
		}
	}
}

// approxAllocBudget is the documented allocation budget of one
// approximate resident probe with a caller-owned result buffer: the
// steady state is zero (decomposition, candidate generation and
// verification all run on pooled scratch), and the budget of 1 absorbs
// the pool refill a GC cycle landing mid-measurement can force.
const approxAllocBudget = 1.0

func TestAllocApproxProbeBudget(t *testing.T) {
	for _, shards := range []int{1, 4} {
		idx, probes := allocWorkload(t, shards)
		dst := make([]RefMatch, 0, 64)
		for _, key := range probes {
			dst = idx.AppendProbeApprox(dst[:0], key) // warm pool + scratch
			avg := testing.AllocsPerRun(200, func() {
				dst = idx.AppendProbeApprox(dst[:0], key)
			})
			if avg > approxAllocBudget {
				t.Errorf("shards=%d approx probe %q: %.2f allocs/op, budget %v",
					shards, key, avg, approxAllocBudget)
			}
		}
	}
}

// nonASCIIAllocWorkload mirrors allocWorkload with Cyrillic keys, so the
// probes run the rune-packed decomposition path end to end.
func nonASCIIAllocWorkload(t testing.TB, shards int) (*ShardedRefIndex, []string) {
	t.Helper()
	idx, err := NewShardedRefIndex(Defaults(), shards)
	if err != nil {
		t.Fatal(err)
	}
	var tuples []relation.Tuple
	for i := 0; i < 64; i++ {
		tuples = append(tuples, relation.Tuple{ID: i, Key: fmt.Sprintf("УЛИЦА МОСКОВСКАЯ %d СЕВЕР %d", i, i%7)})
	}
	idx.Upsert(tuples)
	return idx, []string{
		"УЛИЦА МОСКОВСКАЯ 7 СЕВЕР 0", // exact hit
		"УЛИЦА МОСКОВСКАЯ 7 СЕВЕР 9", // variant: approx hit, exact miss
		"ПЛОЩАДЬ НЕСУЩЕСТВУЮЩАЯ 99",  // miss
	}
}

// approxNonASCIIAllocBudget is the documented budget of one approximate
// probe of a non-ASCII BMP key: the rune-packed path has the same
// steady state of zero as the ASCII byte packing, and the budget of 2
// absorbs up to two pool refills forced by a GC cycle landing
// mid-measurement (non-ASCII scratches are colder than ASCII ones in
// mixed workloads, so refills are marginally likelier).
const approxNonASCIIAllocBudget = 2.0

// Non-ASCII BMP probes honour the packed-path contract: exact probes
// are allocation-free, approximate probes stay within the documented
// budget — the keys never fall back to per-gram string materialisation.
func TestAllocNonASCIIProbes(t *testing.T) {
	for _, shards := range []int{1, 4} {
		idx, probes := nonASCIIAllocWorkload(t, shards)
		dst := make([]RefMatch, 0, 64)
		for _, key := range probes {
			dst = idx.AppendProbeExact(dst[:0], key) // warm
			if avg := testing.AllocsPerRun(200, func() {
				dst = idx.AppendProbeExact(dst[:0], key)
			}); avg != 0 {
				t.Errorf("shards=%d non-ASCII exact probe %q: %.2f allocs/op, want 0", shards, key, avg)
			}
			dst = idx.AppendProbeApprox(dst[:0], key) // warm pool + scratch
			if avg := testing.AllocsPerRun(200, func() {
				dst = idx.AppendProbeApprox(dst[:0], key)
			}); avg > approxNonASCIIAllocBudget {
				t.Errorf("shards=%d non-ASCII approx probe %q: %.2f allocs/op, budget %v",
					shards, key, avg, approxNonASCIIAllocBudget)
			}
		}
	}
}

// upsertBytesBudget is the documented allocation budget of one 16-tuple
// maintenance batch (8 inserts, 8 replacements) into a 4-shard index,
// amortised over 256 batches: the chunks, lists and overlays the batch
// touches plus its share of array growth and table folds. Cloning the
// touched shards wholesale cost 7 MB a batch at 20k rows and 60 MB at
// 200k.
const upsertBytesBudget = 512 << 10

// An upsert allocates for what the batch touches, not for what the
// index holds: ten times the reference moves the bytes allocated per
// batch by less than 2x, and both sizes stay inside the budget.
func TestAllocUpsertBytesIndependentOfIndexSize(t *testing.T) {
	const batches = 256
	bytesPerBatch := func(rows int) float64 {
		idx := scalingIndex(t, rows)
		work := make([][]relation.Tuple, batches)
		for b := range work {
			work[b] = scalingBatch(rows, b)
		}
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, batch := range work {
			if ins, upd, _ := idx.Upsert(batch); ins != 8 || upd != 8 {
				t.Fatalf("%d rows: batch applied as %d inserts / %d updates, want 8 / 8", rows, ins, upd)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / batches
	}
	small, large := bytesPerBatch(20_000), bytesPerBatch(200_000)
	t.Logf("bytes allocated per batch: %.0f at 20k rows, %.0f at 200k rows", small, large)
	if large > 2*small || small > 2*large {
		t.Errorf("bytes per batch depend on the index size: %.0f at 20k rows, %.0f at 200k rows", small, large)
	}
	if small > upsertBytesBudget || large > upsertBytesBudget {
		t.Errorf("bytes per batch %.0f / %.0f over the budget of %d", small, large, upsertBytesBudget)
	}
}

// The single-shard sequential reference implementation honours the same
// contract (read lock aside): zero-alloc exact probes, budgeted approx.
func TestAllocRefIndexProbes(t *testing.T) {
	r, err := NewRefIndex(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var tuples []relation.Tuple
	for i := 0; i < 64; i++ {
		tuples = append(tuples, relation.Tuple{ID: i, Key: fmt.Sprintf("VIA MONTE ROSA %d NORD %d", i, i%7)})
	}
	r.Upsert(tuples)
	dst := make([]RefMatch, 0, 64)
	for _, key := range []string{"VIA MONTE ROSA 7 NORD 0", "VIA MONTE ROSA 7 NORD 9"} {
		dst = r.AppendProbeExact(dst[:0], key)
		if avg := testing.AllocsPerRun(200, func() {
			dst = r.AppendProbeExact(dst[:0], key)
		}); avg != 0 {
			t.Errorf("RefIndex exact probe %q: %.2f allocs/op, want 0", key, avg)
		}
		dst = r.AppendProbeApprox(dst[:0], key)
		if avg := testing.AllocsPerRun(200, func() {
			dst = r.AppendProbeApprox(dst[:0], key)
		}); avg > approxAllocBudget {
			t.Errorf("RefIndex approx probe %q: %.2f allocs/op, budget %v", key, avg, approxAllocBudget)
		}
	}
}

// The streaming engine's approximate probe shares the same scratch
// plumbing: steady-state probing allocates only what the match stream
// itself needs. This is a sanity pin of the per-probe interior (the
// count filter), exercised through the public hashidx path in
// internal/hashidx's TestProbeKeyZeroAllocs.
