package hashidx

import (
	"reflect"
	"slices"
	"testing"

	"adaptivelink/internal/qgram"
)

// postingVocab is the key vocabulary of FuzzPostingList: short keys over
// a few letters, so grams recur and their lists fill blocks.
var postingVocab = []string{"abc", "abd", "bcd", "abcd", "dcba", "aab", "bba", "cab", "abab", "cdcd"}

// postingOracle is the index's (gram, ref) relation as plain int32
// lists, keyed by gram string.
type postingOracle map[string][]int32

func (o postingOracle) evictBelow(minRef int32) {
	for g, refs := range o {
		cut, _ := slices.BinarySearch(refs, minRef)
		if cut == len(refs) {
			delete(o, g)
			continue
		}
		o[g] = slices.Clone(refs[cut:])
	}
}

// checkPostings holds x's decoded lists and counters to the oracle, and
// every list to the layout's invariants.
func checkPostings(t *testing.T, x *QGramIndex, o postingOracle) {
	t.Helper()
	entries, encBytes, tailRefs, buckets := 0, 0, 0, 0
	for id := 0; id < x.postings.Len(); id++ {
		l := x.postings.At(id)
		if l == nil {
			continue
		}
		if l.n == 0 || len(l.tail) >= blockRefs || l.n != len(l.appendTo(nil)) {
			t.Fatalf("list %d: %d tail refs, n %d for %d decoded refs (an empty list is nil)", id, len(l.tail), l.n, len(l.appendTo(nil)))
		}
		entries += l.n
		encBytes += len(l.blocks)
		tailRefs += len(l.tail)
		buckets++
	}
	if entries != x.Entries() || buckets != x.buckets || x.PostingBytes() != encBytes+4*tailRefs {
		t.Fatalf("counters: %d entries / %d lists / %d posting bytes, lists hold %d / %d / %d",
			x.Entries(), x.buckets, x.PostingBytes(), entries, buckets, encBytes+4*tailRefs)
	}
	live := 0
	for g, want := range o {
		id, ok := x.Dict().IDOf(g)
		if got := x.list(id); !ok || !slices.Equal(got, want) {
			t.Fatalf("gram %q lists %v, oracle %v", g, got, want)
		}
		live += len(want)
	}
	if live != entries {
		t.Fatalf("index holds %d postings, oracle %d", entries, live)
	}
}

// FuzzPostingList drives random ascending ref streams through the
// block-compressed posting lists: interleaved inserts of vocabulary
// keys, runs of empty keys that open gaps of every width (so blocks of
// one- to three-byte gaps occur), Clones, EvictBelow cuts and
// BuildQGramIndex rebuilds. After every step the decoded lists equal a
// plain []int32 oracle, ProbeKey equals ProbeNaive, and at the end no
// generation frozen by a Clone has changed.
func FuzzPostingList(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 9, 0, 1, 4, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 3, 128, 0, 5, 4, 0})
	f.Add([]byte{0, 3, 1, 8, 0, 3, 1, 12, 0, 3, 1, 16, 0, 3, 2, 0, 0, 3, 3, 200, 4, 0, 0, 3})
	f.Add(slices.Repeat([]byte{0, 1, 0, 3, 1, 3, 2, 0, 3, 40}, 12))
	// Blocks of two-byte gaps, then one three-byte gap in a block of
	// one-byte ones; each cut by an eviction and rebuilt.
	f.Add(append(slices.Repeat([]byte{0, 3, 1, 8}, 40), 2, 0, 3, 120, 4, 0, 0, 3))
	f.Add(append(append([]byte{0, 3, 1, 16}, slices.Repeat([]byte{0, 3}, 40)...), 2, 0, 4, 0, 3, 254, 0, 3))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		ex := qgram.New(3)
		x := NewQGramIndex(ex)
		o := postingOracle{}
		var keys []string
		floor := 0
		type frozen struct {
			x     *QGramIndex
			lists [][]int32
		}
		var history []frozen
		arg := func(i int) int {
			if i+1 < len(ops) {
				return int(ops[i+1])
			}
			return 0
		}
		for i := 0; i < len(ops); i += 2 {
			switch ops[i] % 5 {
			case 0: // insert a vocabulary key
				key := postingVocab[arg(i)%len(postingVocab)]
				ref := len(keys)
				x.Insert(ref, key)
				keys = append(keys, key)
				for _, g := range ex.Grams(key) {
					if len(o[g]) == 0 || o[g][len(o[g])-1] != int32(ref) {
						o[g] = append(o[g], int32(ref))
					}
				}
			case 1: // a run of empty keys: the next gap is 2^k wide
				for n := 1 << (arg(i) % 18); n > 0 && len(keys) < 1<<19; n-- {
					x.Insert(len(keys), "")
					keys = append(keys, "")
				}
			case 2: // publish: freeze this generation, write to its clone
				history = append(history, frozen{x, postingsOf(x)})
				x = x.Clone()
			case 3: // evict a prefix
				minRef := len(keys) * arg(i) / 255
				x.EvictBelow(minRef)
				o.evictBelow(int32(minRef))
				floor = max(floor, minRef)
			case 4: // a bulk build of the same keys lists the same refs
				y := BuildQGramIndex(ex, len(keys), func(ref int) string { return keys[ref] })
				y.EvictBelow(floor)
				checkPostings(t, y, o)
			}
			checkPostings(t, x, o)
			var sc ProbeScratch
			for _, key := range postingVocab[:3] {
				k := ex.Decompose(&sc.Dec, key)
				for _, ko := range []int{1, max(1, k.Len()/2), k.Len()} {
					got := slices.Clone(x.ProbeKey(k, ko, &sc))
					if want := x.ProbeNaive(key, ko); !reflect.DeepEqual(got, want) {
						t.Fatalf("ProbeKey(%q, %d) = %v, ProbeNaive %v", key, ko, got, want)
					}
				}
				sc.Dec.Reset()
			}
		}
		for gen, h := range history {
			if got := postingsOf(h.x); !reflect.DeepEqual(got, h.lists) {
				t.Fatalf("generation %d's lists changed after its Clone", gen)
			}
		}
	})
}
