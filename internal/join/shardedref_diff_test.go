package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
)

// diffKeyPool builds the key material for the differential harness: a
// pool of realistic-looking location keys plus one-character variants
// of some of them, so exact probes, approximate recoveries and clean
// misses all occur.
func diffKeyPool(rng *rand.Rand, n int) (stored, variants, misses []string) {
	streets := []string{"via monte bianco", "lago di como", "valle verde", "piazza duomo", "corso europa", "strada statale"}
	dirs := []string{"nord", "sud", "est", "ovest"}
	for i := 0; i < n; i++ {
		stored = append(stored, fmt.Sprintf("%s %s %d",
			streets[rng.Intn(len(streets))], dirs[rng.Intn(len(dirs))], rng.Intn(200)))
	}
	for i := 0; i < n/2; i++ {
		k := []byte(stored[rng.Intn(len(stored))])
		pos := rng.Intn(len(k))
		k[pos] = byte('a' + rng.Intn(26))
		variants = append(variants, string(k))
	}
	for i := 0; i < n/4; i++ {
		misses = append(misses, fmt.Sprintf("unrelated thing %d-%d", rng.Intn(1000), i))
	}
	return stored, variants, misses
}

// diffOp is one step of the randomized op stream.
type diffOp struct {
	kind  string // "exact", "approx", "batch-exact", "batch-approx", "upsert", "build"
	keys  []string
	batch []relation.Tuple
	shard int // "build": the shard whose first approximate probe this stands for
}

// randomOpStream generates a seeded interleaving of single probes in
// both Fig. 4 probe modes, batch probes in both modes, and upserts
// (fresh keys and payload replacements).
func randomOpStream(seed int64, steps int) []diffOp {
	rng := rand.New(rand.NewSource(seed))
	stored, variants, misses := diffKeyPool(rng, 60)
	probeKey := func() string {
		switch rng.Intn(3) {
		case 0:
			return stored[rng.Intn(len(stored))]
		case 1:
			return variants[rng.Intn(len(variants))]
		default:
			return misses[rng.Intn(len(misses))]
		}
	}
	var ops []diffOp
	nextID := 0
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0, 1: // upsert: mix of fresh keys and replacements
			var batch []relation.Tuple
			for j := 0; j < 1+rng.Intn(4); j++ {
				key := probeKey()
				if rng.Intn(2) == 0 {
					key = fmt.Sprintf("%s fresh %d", key, nextID)
				}
				batch = append(batch, relation.Tuple{
					ID: nextID, Key: key, Attrs: []string{fmt.Sprintf("payload-%d", nextID)},
				})
				nextID++
			}
			ops = append(ops, diffOp{kind: "upsert", batch: batch})
		case 2, 3: // batch probe
			kind := "batch-exact"
			if rng.Intn(2) == 0 {
				kind = "batch-approx"
			}
			var keys []string
			for j := 0; j < 1+rng.Intn(24); j++ {
				keys = append(keys, probeKey())
			}
			ops = append(ops, diffOp{kind: kind, keys: keys})
		default: // single probe
			kind := "exact"
			if rng.Intn(2) == 0 {
				kind = "approx"
			}
			ops = append(ops, diffOp{kind: kind, keys: []string{probeKey()}})
		}
	}
	return ops
}

// lazyOpStream is randomOpStream with the approximate probes of its
// first half made exact and, in their place, single shards built at
// random points — what first approximate probes into single shards do —
// so the second half's approximate probes meet a mix of shards built
// early, built late and never built before.
func lazyOpStream(seed int64, steps int) []diffOp {
	rng := rand.New(rand.NewSource(^seed))
	var ops []diffOp
	for i, op := range randomOpStream(seed, steps) {
		if i < steps/2 {
			switch op.kind {
			case "approx":
				op.kind = "exact"
			case "batch-approx":
				op.kind = "batch-exact"
			}
			if rng.Intn(12) == 0 {
				ops = append(ops, diffOp{kind: "build", shard: rng.Intn(8)})
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// applyOp runs one op against a Resident and returns a canonical result
// rendering (probe results per key; upsert counts).
func applyOp(r Resident, op diffOp) string {
	switch op.kind {
	case "build":
		if s, ok := r.(*ShardedRefIndex); ok {
			s.built(op.shard % s.nshard)
		}
		return ""
	case "upsert":
		ins, upd, _ := r.Upsert(op.batch)
		return fmt.Sprintf("upsert %d/%d", ins, upd)
	case "exact":
		return renderMatches(r.Probe(Exact, op.keys[0]))
	case "approx":
		return renderMatches(r.Probe(Approx, op.keys[0]))
	case "batch-exact", "batch-approx":
		mode := Exact
		if op.kind == "batch-approx" {
			mode = Approx
		}
		out := ""
		for _, ms := range r.ProbeBatch(mode, op.keys) {
			out += renderMatches(ms) + ";"
		}
		return out
	}
	panic("unknown op " + op.kind)
}

func renderMatches(ms []RefMatch) string {
	out := ""
	for _, m := range ms {
		out += fmt.Sprintf("(%s %q %.9f %v)", m.Tuple.Key, m.Tuple.Attrs, m.Similarity, m.Exact)
	}
	return out
}

// TestApproxOrderIndependentOfWriteOrder fills two indexes with the
// same keyed store, one in key order and one shuffled into batches, and
// demands byte-identical approximate answers from both, single and
// batched: a key's matches are ordered by their content
// (CompareMatches), never by when their keys were written.
func TestApproxOrderIndependentOfWriteOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	stored, variants, misses := diffKeyPool(rng, 300)
	seen := make(map[string]bool)
	var rows []relation.Tuple
	for _, k := range stored {
		if !seen[k] {
			seen[k] = true
			rows = append(rows, relation.Tuple{ID: len(rows), Key: k, Attrs: []string{fmt.Sprint("a", len(rows))}})
		}
	}
	slices.SortFunc(rows, func(a, b relation.Tuple) int { return strings.Compare(a.Key, b.Key) })
	shuffled := slices.Clone(rows)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	probes := append(append(append([]string(nil), stored...), variants...), misses...)

	for _, shards := range []int{1, 4} {
		inOrder, err := NewShardedRefIndex(Defaults(), shards)
		if err != nil {
			t.Fatal(err)
		}
		inOrder.Upsert(rows)
		reordered, err := NewShardedRefIndex(Defaults(), shards)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(shuffled); lo += 7 {
			reordered.Upsert(shuffled[lo:min(lo+7, len(shuffled))])
		}
		multi := 0
		for _, k := range probes {
			a, b := fmt.Sprint(inOrder.ProbeApprox(k)), fmt.Sprint(reordered.ProbeApprox(k))
			if a != b {
				t.Fatalf("%d shards: ProbeApprox(%q) depends on write order:\n in order %s\n shuffled %s", shards, k, a, b)
			}
			if len(inOrder.ProbeApprox(k)) > 1 {
				multi++
			}
		}
		if multi < 20 {
			t.Fatalf("%d shards: only %d probes matched more than one key; the order was barely tested", shards, multi)
		}
		if a, b := fmt.Sprint(inOrder.ProbeBatch(Approx, probes)), fmt.Sprint(reordered.ProbeBatch(Approx, probes)); a != b {
			t.Fatalf("%d shards: ProbeBatch(Approx) depends on write order", shards)
		}
	}
}

// TestShardedRefDifferential drives the sharded index and the retained
// single-shard reference implementation with the same seeded stream of
// interleaved Probe/ProbeBatch/Upsert ops — probes in both Fig. 4 probe
// modes, so all four processor states' probe behaviour is covered — and
// asserts identical results at every step, for shard counts 1, 2 and 4.
// Results are compared fully ordered (tuple snapshot, similarity,
// exactness), which is stronger than multiset equality. The lazy
// variant keeps the first half exact and builds single shards at random
// points in it, so the oracle's eagerly maintained q-gram index is
// matched by shards built early, built late and built by the second
// half's first approximate probe.
func TestShardedRefDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		for _, seed := range []int64{1, 7, 42} {
			seed := seed
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				diffAgainstOracle(t, shards, randomOpStream(seed, 400))
			})
			t.Run(fmt.Sprintf("shards=%d/seed=%d/lazy", shards, seed), func(t *testing.T) {
				diffAgainstOracle(t, shards, lazyOpStream(seed, 400))
			})
		}
	}
}

// diffAgainstOracle drives the sharded index and the sequential oracle
// with one op stream, asserting identical results at every step and
// identical stores at the end.
func diffAgainstOracle(t *testing.T, shards int, ops []diffOp) {
	t.Helper()
	ref, err := NewRefIndex(Defaults())
	if err != nil {
		t.Fatalf("NewRefIndex: %v", err)
	}
	sharded, err := NewShardedRefIndex(Defaults(), shards)
	if err != nil {
		t.Fatalf("NewShardedRefIndex: %v", err)
	}
	probes := 0
	for step, op := range ops {
		want := applyOp(ref, op)
		got := applyOp(sharded, op)
		if got != want {
			t.Fatalf("step %d (%s): sharded diverged\n got  %s\n want %s", step, op.kind, got, want)
		}
		if op.kind != "upsert" {
			probes++
		}
		if sharded.Len() != ref.Len() {
			t.Fatalf("step %d: Len %d vs reference %d", step, sharded.Len(), ref.Len())
		}
	}
	if probes == 0 || ref.Len() == 0 {
		t.Fatal("degenerate op stream")
	}
	// The stores themselves must agree ref-for-ref.
	for i := 0; i < ref.Len(); i++ {
		a, errA := ref.Tuple(i)
		b, errB := sharded.Tuple(i)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("Tuple(%d): sharded %+v (%v) vs reference %+v (%v)", i, b, errB, a, errA)
		}
	}
	// One shard holds what the oracle holds: its q-gram index, however
	// late it was built, is the eagerly maintained one, id for id.
	if shards == 1 && !reflect.DeepEqual(sharded.built(0).qgIdx.ExportCompacted(), ref.qgIdx.ExportCompacted()) {
		t.Fatal("single shard's q-gram index differs from the oracle's")
	}
}

// TestShardedRefEntriesReplication pins the replication factor at 1:
// the shards partition the reference, so at every shard count Entries
// equals the single-shard reference's — the paper's n·(|jA|+q−1)
// postings, one copy — on the bulk path and the upsert path alike, once
// built; before the first approximate probe there are none.
func TestShardedRefEntriesReplication(t *testing.T) {
	tuples := bulkTuples(rand.New(rand.NewSource(3)), 120)
	ref, _ := NewRefIndex(Defaults())
	ref.Upsert(tuples)
	refEx, refQG := ref.Entries()
	if refEx != ref.Len() || refQG <= refEx {
		t.Fatalf("degenerate reference: Entries %d/%d for %d keys", refEx, refQG, ref.Len())
	}
	for _, shards := range []int{1, 2, 4, 8} {
		upserted, err := NewShardedRefIndex(Defaults(), shards)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(tuples); lo += 17 {
			upserted.Upsert(tuples[lo:min(lo+17, len(tuples))])
		}
		bulk, err := BuildShardedRefIndex(Defaults(), shards, tuples)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*ShardedRefIndex{"upserted": upserted, "bulk": bulk} {
			if ex, qg := s.Entries(); ex != refEx || qg != 0 {
				t.Errorf("%d shards, %s, unbuilt: Entries %d/%d, want %d/0", shards, name, ex, qg, refEx)
			}
			s.ProbeApprox("") // builds every shard
			if ex, qg := s.Entries(); ex != refEx || qg != refQG {
				t.Errorf("%d shards, %s: Entries %d/%d, reference %d/%d", shards, name, ex, qg, refEx, refQG)
			}
			if s.Shards() != shards {
				t.Errorf("Shards() = %d, want %d", s.Shards(), shards)
			}
		}
	}
}

// TestShardedRefHomeShardOnly is the placement property: after a bulk
// build interleaved with upserts of fresh keys and payload replacements
// (and a snapshot round trip on top), every resident key is stored in
// shard ShardOf(key, N) and in no other, is the one entry of its bucket
// in that shard's exact index, and is what Tuple answers for its global
// ref — and the shards' global refs partition [0, Len).
func TestShardedRefHomeShardOnly(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 8} {
		rng := rand.New(rand.NewSource(int64(shards)))
		s, err := BuildShardedRefIndex(Defaults(), shards, bulkTuples(rng, 90))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range randomOpStream(int64(100+shards), 300) {
			applyOp(s, op)
		}
		view, err := s.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := NewShardedRefIndexFromSnapshot(gathered(view))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range randomOpStream(int64(200+shards), 100) {
			applyOp(loaded, op)
		}
		for name, ix := range map[string]*ShardedRefIndex{"live": s, "reloaded": loaded} {
			seen := make(map[string]int)
			refs := make(map[int]bool)
			for sh := range ix.shards {
				sn := ix.shards[sh].Load()
				if len(sn.globals) != sn.tuples.Len() {
					t.Fatalf("%d shards, %s: shard %d lists %d global refs for %d tuples", shards, name, sh, len(sn.globals), sn.tuples.Len())
				}
				for lref, key := range snapKeys(sn) {
					if home := shardmap.ShardOf(key, shards); home != sh {
						t.Fatalf("%d shards, %s: key %q stored in shard %d, home is %d", shards, name, key, sh, home)
					}
					seen[key]++
					if got, ok := sn.exIdx.Get(key); !ok || int(got) != lref {
						t.Fatalf("%d shards, %s: shard %d's exact index holds %q at %v, tuples at %d", shards, name, sh, key, got, lref)
					}
					if g := int(sn.globals[lref]); g < 0 || g >= ix.Len() || refs[g] {
						t.Fatalf("%d shards, %s: shard %d local %d carries global ref %d: outside [0, %d) or taken", shards, name, sh, lref, g, ix.Len())
					}
					refs[int(sn.globals[lref])] = true
					stored, err := ix.Tuple(int(sn.globals[lref]))
					if err != nil || !reflect.DeepEqual(stored, sn.tuples.At(lref)) {
						t.Fatalf("%d shards, %s: shard %d holds %+v at ref %d, store has %+v (%v)",
							shards, name, sh, sn.tuples.At(lref), sn.globals[lref], stored, err)
					}
				}
			}
			if len(seen) != ix.Len() {
				t.Fatalf("%d shards, %s: %d distinct keys across shards, store has %d", shards, name, len(seen), ix.Len())
			}
			for key, copies := range seen {
				if copies != 1 {
					t.Fatalf("%d shards, %s: key %q stored %d times", shards, name, key, copies)
				}
			}
		}
	}
}

// TestShardedRefValidation pins constructor errors.
func TestShardedRefValidation(t *testing.T) {
	if _, err := NewShardedRefIndex(Defaults(), 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	cfg := Defaults()
	cfg.Q = 0
	if _, err := NewShardedRefIndex(cfg, 2); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Resident-irrelevant fields must not fail construction.
	cfg = Defaults()
	cfg.Initial = State{Mode(7), Mode(9)}
	cfg.RetainWindow = -3
	if _, err := NewShardedRefIndex(cfg, 2); err != nil {
		t.Fatalf("resident-irrelevant fields rejected: %v", err)
	}
	s, err := NewShardedRefIndex(Defaults(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tuple(0); err == nil {
		t.Fatal("out-of-range ref accepted")
	}
	if ins, upd, _ := s.Upsert(nil); ins != 0 || upd != 0 {
		t.Fatalf("empty upsert = %d/%d", ins, upd)
	}
	if got := s.ProbeBatch(Exact, nil); len(got) != 0 {
		t.Fatalf("empty batch = %v", got)
	}
}
