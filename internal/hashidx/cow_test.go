package hashidx

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"adaptivelink/internal/qgram"
)

// list returns gram id's posting list decoded: nil for an empty list,
// qgram.NoID and grams interned but not yet in the postings table.
func (x *QGramIndex) list(id uint32) []int32 { return x.appendList(nil, id) }

// postingsOf lists x's postings table over the whole dictionary, with
// every empty or not-yet-posted list as nil.
func postingsOf(x *QGramIndex) [][]int32 {
	out := make([][]int32, x.dict.Len())
	for id := range out {
		if l := x.list(uint32(id)); len(l) > 0 {
			out[id] = l
		}
	}
	return out
}

func randomKey(rng *rand.Rand) string {
	words := []string{"VIA", "MONTE", "ROSA", "LAGO", "COMO", "NORD", "PIAZZA", "DUOMO", "BORGO", "SANTA"}
	return fmt.Sprintf("%s %s %d", words[rng.Intn(len(words))], words[rng.Intn(len(words))], rng.Intn(300))
}

// The postings table is derived state: for random insert / EvictBelow
// sequences, importing an export — plain or compacted — transposes the
// signatures into exactly the table the live index grew list by list,
// with the same counters.
func TestImportDerivesLivePostings(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := newQIdx()
		floor := 0
		for step := 0; step < 120; step++ {
			switch rng.Intn(10) {
			case 0:
				floor = min(x.Indexed(), floor+rng.Intn(8))
				x.EvictBelow(floor)
			case 1:
				x.Insert(x.Indexed(), "") // the empty signature
			default:
				x.Insert(x.Indexed(), randomKey(rng))
			}
			if step%7 != 0 {
				continue
			}
			y, err := ImportQGramIndex(x.Extractor(), x.Export())
			if err != nil {
				t.Fatalf("seed %d step %d: import of a live export: %v", seed, step, err)
			}
			if got, want := postingsOf(y), postingsOf(x); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: derived postings differ from the live index's\n got  %v\n want %v", seed, step, got, want)
			}
			if y.buckets != x.buckets || y.entries != x.entries || y.indexed != x.indexed {
				t.Fatalf("seed %d step %d: derived counters %d/%d/%d, live %d/%d/%d",
					seed, step, y.buckets, y.entries, y.indexed, x.buckets, x.entries, x.indexed)
			}
			// Compaction renumbers grams, so compare per gram string.
			z, err := ImportQGramIndex(x.Extractor(), x.ExportCompacted())
			if err != nil {
				t.Fatalf("seed %d step %d: import of a compacted export: %v", seed, step, err)
			}
			if z.Dict().Len() != x.buckets || z.entries != x.entries {
				t.Fatalf("seed %d step %d: compacted import has %d grams / %d entries, live has %d non-empty lists / %d entries",
					seed, step, z.Dict().Len(), z.entries, x.buckets, x.entries)
			}
			for id, g := range x.Dict().Grams() {
				zid, _ := z.Dict().IDOf(g)
				if got, want := z.list(zid), x.list(uint32(id)); len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: gram %q lists %v after compaction, %v live", seed, step, g, got, want)
				}
			}
		}
	}
}

// A derived list's arrays end at their length: the first append after
// an import copies that one list's tail, and the first block it encodes
// copies that list's blocks, instead of overwriting a neighbour or the
// view an earlier generation holds.
func TestImportedPostingListsAreClipped(t *testing.T) {
	x := newQIdx()
	for i := 0; i < 3*blockRefs+5; i++ {
		x.Insert(i, fmt.Sprintf("VIA MONTE ROSA %d", i))
	}
	y, err := ImportQGramIndex(x.Extractor(), x.Export())
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for id := 0; id < y.postings.Len(); id++ {
		l := y.postings.At(id)
		if l == nil {
			continue
		}
		if cap(l.blocks) != len(l.blocks) || cap(l.tail) != len(l.tail) {
			t.Fatalf("list %d has %d spare block bytes and %d spare tail slots", id, cap(l.blocks)-len(l.blocks), cap(l.tail)-len(l.tail))
		}
		if len(l.blocks) > 0 {
			blocks++
		}
	}
	if blocks == 0 {
		t.Fatal("no list reached a full block; workload broken")
	}
	before := postingsOf(y)
	frozen := y
	y = y.Clone()
	for i := 3*blockRefs + 5; i < 5*blockRefs; i++ {
		key := fmt.Sprintf("VIA MONTE ROSA %d", i)
		y.Insert(i, key)
		x.Insert(i, key)
	}
	if !reflect.DeepEqual(postingsOf(y), postingsOf(x)) {
		t.Fatal("imported index diverged from the live one after inserts")
	}
	if !reflect.DeepEqual(postingsOf(frozen), before) {
		t.Fatal("inserts into a clone of an import changed the import's lists")
	}
}

func mustPanicFrozen(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "frozen") {
			t.Fatalf("%s panicked with %q, want a message naming the freeze", what, msg)
		}
	}()
	fn()
}

// Clone freezes its receiver: the linear-history assumption behind the
// shared arrays is a checked invariant, not a convention.
func TestWritesToClonedGenerationPanic(t *testing.T) {
	q := newQIdx()
	q.Insert(0, "monte rosa")
	q.Clone()
	mustPanicFrozen(t, "QGramIndex.Insert after Clone", func() { q.Insert(1, "monte rosa") })
	mustPanicFrozen(t, "QGramIndex.Insert of the empty key after Clone", func() { q.Insert(1, "") })
	var sc qgram.Scratch
	mustPanicFrozen(t, "QGramIndex.InsertKey after Clone", func() { q.InsertKey(1, qgram.New(3).Decompose(&sc, "abc")) })
	mustPanicFrozen(t, "QGramIndex.CatchUp after Clone", func() { q.CatchUp([]string{"monte rosa", "lago"}) })
	mustPanicFrozen(t, "QGramIndex.EvictBelow after Clone", func() { q.EvictBelow(1) })
	mustPanicFrozen(t, "second QGramIndex.Clone", func() { q.Clone() })
	mustPanicFrozen(t, "Dict.Intern of a new gram after Clone", func() { q.Dict().Intern(nil, qgram.New(3).Decompose(&sc, "zzz")) })

	// Reads of a frozen generation are what it is for.
	if got := q.Probe("monte rosa", q.GramSize(0)); len(got) != 1 {
		t.Fatalf("frozen q-gram index probe = %v", got)
	}
}

// generation is everything observable about one frozen index.
type generation struct {
	q        *QGramIndex
	keys     []string
	export   QGramExport // deep copy
	postings [][]int32   // deep copy
}

func freeze(q *QGramIndex, keys []string) generation {
	g := generation{q: q, keys: append([]string(nil), keys...)}
	exp := q.Export()
	g.export = QGramExport{
		Grams:    exp.Grams,
		Sizes:    append([]uint32(nil), exp.Sizes...),
		SigFloor: exp.SigFloor,
	}
	for _, sig := range exp.Sigs {
		var cp []uint32
		if sig != nil {
			cp = append([]uint32{}, sig...)
		}
		g.export.Sigs = append(g.export.Sigs, cp)
	}
	for _, l := range postingsOf(q) {
		g.postings = append(g.postings, append([]int32(nil), l...))
	}
	return g
}

func (g generation) check(t *testing.T, gen int) {
	t.Helper()
	exp := g.q.Export()
	if !reflect.DeepEqual(exp.Grams, g.export.Grams) || !reflect.DeepEqual(exp.Sizes, g.export.Sizes) || exp.SigFloor != g.export.SigFloor {
		t.Fatalf("generation %d: dictionary, sizes or floor changed after the freeze", gen)
	}
	for ref, sig := range exp.Sigs {
		if (sig == nil) != (g.export.Sigs[ref] == nil) || !reflect.DeepEqual(append([]uint32{}, sig...), append([]uint32{}, g.export.Sigs[ref]...)) {
			t.Fatalf("generation %d: signature of ref %d changed after the freeze", gen, ref)
		}
	}
	for id, l := range postingsOf(g.q) {
		if !reflect.DeepEqual(append([]int32(nil), l...), g.postings[id]) {
			t.Fatalf("generation %d: posting list %d changed after the freeze: %v, was %v", gen, id, l, g.postings[id])
		}
	}
}

// A lineage of clones — inserts of new and duplicate keys, dictionary
// and table folds, tails filling into blocks, evictions on inherited
// arrays — never changes a
// generation it has left behind, while readers probe those generations
// concurrently (the race detector's half of the test).
func TestClonedLineageLeavesGenerationsIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := newQIdx()
	var keys []string
	var history []generation
	var wg sync.WaitGroup
	for gen := 0; gen < 80; gen++ {
		for n := 1 + rng.Intn(6); n > 0; n-- {
			k := randomKey(rng)
			if len(keys) > 0 && rng.Intn(4) == 0 {
				k = keys[rng.Intn(len(keys))] // duplicate: extends a bucket of a shared table
			}
			q.Insert(len(keys), k)
			keys = append(keys, k)
		}
		if gen%25 == 24 {
			q.EvictBelow(len(keys) / 4)
		}
		g := freeze(q, keys)
		history = append(history, g)
		q = q.Clone()
		wg.Add(1)
		go func(gen int, g generation) {
			defer wg.Done()
			var sc ProbeScratch
			for _, k := range g.keys {
				key := g.q.Extractor().Decompose(&sc.Dec, k)
				for _, c := range g.q.ProbeKey(key, max(1, key.Len()), &sc) {
					if c.Ref >= len(g.keys) {
						t.Errorf("generation %d: probe returned ref %d of a later generation", gen, c.Ref)
						return
					}
				}
				sc.Dec.Reset()
			}
		}(gen, g)
	}
	wg.Wait()
	for gen, g := range history {
		g.check(t, gen)
	}
	// The newest generation is still a correct index of everything live.
	y, err := ImportQGramIndex(qgram.New(3), q.Export())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(postingsOf(y), postingsOf(q)) {
		t.Fatal("postings grown across the lineage differ from the transpose of its signatures")
	}
}

// Signatures are derived state as well: for random insert / EvictBelow
// / Clone sequences, Export hands out — ref by ref — the sorted
// distinct dictionary ids of the key that was inserted (nil once the
// ref is evicted, non-nil even for an empty gram set while it is
// live), and importing the export rebuilds the live index: same
// dictionary, sizes, postings and counters.
func TestExportDerivesInsertedSignatures(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := newQIdx()
		var keys []string
		floor := 0
		for step := 0; step < 150; step++ {
			switch rng.Intn(12) {
			case 0:
				minRef := rng.Intn(len(keys) + 3) // now and then past Indexed
				x.EvictBelow(minRef)
				floor = max(floor, min(minRef, len(keys)))
			case 1:
				x = x.Clone()
			case 2:
				x.Insert(len(keys), "")
				keys = append(keys, "")
			default:
				k := randomKey(rng)
				x.Insert(len(keys), k)
				keys = append(keys, k)
			}
			if step%5 != 0 {
				continue
			}
			exp := x.Export()
			if exp.SigFloor != floor || len(exp.Sigs) != len(keys) {
				t.Fatalf("seed %d step %d: export has floor %d and %d signatures, want %d and %d", seed, step, exp.SigFloor, len(exp.Sigs), floor, len(keys))
			}
			for ref, key := range keys {
				var want []uint32
				if ref >= floor {
					want = []uint32{}
					for _, g := range x.Extractor().Grams(key) {
						id, ok := x.Dict().IDOf(g)
						if !ok {
							t.Fatalf("seed %d step %d: gram %q of key %q is not in the dictionary", seed, step, g, key)
						}
						want = append(want, id)
					}
					slices.Sort(want)
					want = slices.Compact(want)
				}
				if got := exp.Sigs[ref]; (got == nil) != (want == nil) || !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: ref %d (%q) exports signature %v, want %v", seed, step, ref, key, got, want)
				}
			}
			y, err := ImportQGramIndex(x.Extractor(), exp)
			if err != nil {
				t.Fatalf("seed %d step %d: import of a live export: %v", seed, step, err)
			}
			if !reflect.DeepEqual(y.dict.Grams(), x.dict.Grams()) || !slices.Equal(y.sizes, x.sizes) || !reflect.DeepEqual(postingsOf(y), postingsOf(x)) {
				t.Fatalf("seed %d step %d: imported dictionary, sizes or postings differ from the live index's", seed, step)
			}
			if y.buckets != x.buckets || y.entries != x.entries || y.indexed != x.indexed || y.sigFloor != x.sigFloor {
				t.Fatalf("seed %d step %d: imported counters %d/%d/%d/%d, live %d/%d/%d/%d", seed, step,
					y.buckets, y.entries, y.indexed, y.sigFloor, x.buckets, x.entries, x.indexed, x.sigFloor)
			}
		}
	}
}
