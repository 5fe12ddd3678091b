package cow

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

func vecContents(v *Vec[int]) []int {
	out := make([]int, v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// Every generation of a Vec lineage keeps the contents it was frozen
// with, whatever later generations append or overwrite — across chunk
// boundaries, partly filled tail chunks and repeated writes to a slot.
func TestVecGenerationsAreFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type frozen struct {
		vec  *Vec[int]
		want []int
	}
	var history []frozen
	cur := new(Vec[int])
	var model []int
	for gen := 0; gen < 60; gen++ {
		for op := rng.Intn(3 * chunkSize); op > 0; op-- {
			if len(model) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(model))
				model[i] = rng.Int()
				*cur.Mut(i) = model[i]
			} else {
				model = append(model, rng.Int())
				cur.Append(model[len(model)-1])
			}
		}
		if got := vecContents(cur); !slices.Equal(got, model) {
			t.Fatalf("generation %d diverged from the model", gen)
		}
		next := cur.Clone()
		history = append(history, frozen{cur, slices.Clone(model)})
		cur = &next
	}
	for gen, h := range history {
		if got := vecContents(h.vec); !slices.Equal(got, h.want) {
			t.Fatalf("generation %d changed after it was frozen", gen)
		}
	}
}

// A write copies one chunk and its leaf, not the vector: untouched
// chunks and leaves stay shared between a generation and its clone.
func TestVecCloneSharesUntouchedChunks(t *testing.T) {
	const chunks = leafSize + 10 // two leaves
	v := vecOf(make([]int, chunks*chunkSize)...)
	c := v.Clone()
	*c.Mut(3*chunkSize + 1) = 7
	*c.Mut(3*chunkSize + 2) = 8 // second write: chunk already owned
	shared := 0
	for i := range chunks {
		if v.dir[i>>leafBits][i&leafMask] == c.dir[i>>leafBits][i&leafMask] {
			shared++
		}
	}
	if shared != chunks-1 {
		t.Fatalf("%d of %d chunks shared after writes to one chunk", shared, chunks)
	}
	if v.dir[0] == c.dir[0] || v.dir[1] != c.dir[1] {
		t.Fatal("the written leaf is shared, or the untouched one copied")
	}
	if v.At(3*chunkSize+1) != 0 || c.At(3*chunkSize+1) != 7 || c.At(3*chunkSize+2) != 8 {
		t.Fatal("write leaked into the parent or was lost in the clone")
	}
}

func vecOf(xs ...int) *Vec[int] {
	v := new(Vec[int])
	for _, x := range xs {
		v.Append(x)
	}
	return v
}

func mustPanic(t *testing.T, what string, fn func()) {
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

// strKeys is a Table's key store in tests: the keys in ref order.
type strKeys struct{ Vec[string] }

func (k *strKeys) Key(ref int) string { return k.At(ref) }

// add stores key under the next ref and indexes it.
func (k *strKeys) add(t *Table, key string) {
	k.Append(key)
	t.Add(Hash(key))
}

func TestFrozenContainersPanicOnWrite(t *testing.T) {
	v := vecOf(1, 2, 3)
	v.Clone()
	mustPanic(t, "Vec.Mut on a frozen generation", func() { v.Mut(0) })
	mustPanic(t, "Vec.Append on a frozen generation", func() { v.Append(4) })

	for _, folded := range []bool{true, false} {
		keys := new(strKeys)
		tab := NewTable(keys, 0)
		for i := 0; i < 100; i++ {
			keys.add(&tab, fmt.Sprint(i))
		}
		if !folded {
			next := &strKeys{keys.Clone()}
			tab, keys = tab.Clone(next), next // base shared with the first generation
			keys.add(&tab, "overlay")
		}
		tab.Clone(&strKeys{keys.Clone()})
		mustPanic(t, "Table.Add on a frozen generation", func() { tab.Add(Hash("new")) })
		if ref, ok := tab.Get("7"); !ok || ref != 7 {
			t.Fatalf("frozen table lost a key: %d, %v", ref, ok)
		}
	}
}

// Every generation of a Table lineage keeps the keys it was frozen
// with, and learns none added later, across overlay growth, layer
// growth and folds.
func TestTableGenerationsAreFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type frozen struct {
		tab *Table
		n   int
	}
	var history []frozen
	keys := new(strKeys)
	first := NewTable(keys, 0)
	cur := &first
	var model []string
	folds, layered := 0, 0
	for gen := 0; gen < 200; gen++ {
		for op := rng.Intn(12); op > 0; op-- {
			model = append(model, fmt.Sprintf("key-%d", len(model)))
			keys.add(cur, model[len(model)-1])
		}
		if cur.Len() != len(model) {
			t.Fatalf("generation %d: Len %d, want %d", gen, cur.Len(), len(model))
		}
		for ref, k := range model {
			if got, ok := cur.Get(k); !ok || int(got) != ref {
				t.Fatalf("generation %d: Get(%q) = %d, %v; want %d", gen, k, got, ok, ref)
			}
			if got, ok := cur.GetBytes([]byte(k)); !ok || int(got) != ref {
				t.Fatalf("generation %d: GetBytes(%q) = %d, %v; want %d", gen, k, got, ok, ref)
			}
		}
		if _, ok := cur.Get("absent"); ok {
			t.Fatalf("generation %d knows an absent key", gen)
		}
		nextKeys := &strKeys{keys.Clone()}
		next := cur.Clone(nextKeys)
		history = append(history, frozen{cur, len(model)})
		if next.over == nil {
			folds++
		} else {
			layered++
			if next.over.n*next.over.n >= foldScale*next.base.n {
				t.Fatalf("generation %d: overlay of %d keys on a base of %d survived Clone", gen, next.over.n, next.base.n)
			}
		}
		cur, keys = &next, nextKeys
	}
	if folds < 5 || layered < 50 {
		t.Fatalf("lineage saw %d folded and %d layered generations; the schedule exercises too little", folds, layered)
	}
	for gen, h := range history {
		if h.tab.Len() != h.n {
			t.Fatalf("generation %d holds %d keys, was frozen with %d", gen, h.tab.Len(), h.n)
		}
		for ref, k := range model {
			got, ok := h.tab.Get(k)
			if ref < h.n && (!ok || int(got) != ref) || ref >= h.n && ok {
				t.Fatalf("generation %d: Get(%q) = %d, %v after it was frozen with %d keys", gen, k, got, ok, h.n)
			}
		}
	}
}

// Lookups allocate nothing on either layer, by string or by bytes, hit
// or miss.
func TestTableGetZeroAllocs(t *testing.T) {
	keys := new(strKeys)
	tab := NewTable(keys, 0)
	for i := 0; i < 64; i++ {
		keys.add(&tab, fmt.Sprint(i))
	}
	next := &strKeys{keys.Clone()}
	tab = tab.Clone(next)
	next.add(&tab, "overlay")
	if tab.over == nil || tab.over.n != 1 {
		t.Fatal("the clone folded: no overlay to look up")
	}
	for _, key := range []string{"7", "overlay", "absent"} {
		b := []byte(key)
		if avg := testing.AllocsPerRun(100, func() { tab.Get(key) }); avg != 0 {
			t.Errorf("Get(%q) allocated %.1f times per lookup", key, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { tab.GetBytes(b) }); avg != 0 {
			t.Errorf("GetBytes(%q) allocated %.1f times per lookup", key, avg)
		}
	}
}

// Readers of frozen generations run beside the writer of the newest
// one with no synchronisation but the hand-over of the generation
// itself: the race detector holds the containers to that.
func TestReadersOfFrozenGenerationsRaceFree(t *testing.T) {
	vec := new(Vec[int])
	keys := new(strKeys)
	first := NewTable(keys, 0)
	tab := &first
	var wg sync.WaitGroup
	for gen := 0; gen < 40; gen++ {
		for i := 0; i < 50; i++ {
			n := vec.Len()
			vec.Append(n)
			*vec.Mut(n / 2) = n / 2
			keys.add(tab, fmt.Sprint(n))
		}
		nextVec, nextKeys := vec.Clone(), &strKeys{keys.Clone()}
		nextTab := tab.Clone(nextKeys)
		wg.Add(1)
		go func(v *Vec[int], tab *Table) {
			defer wg.Done()
			for i := 0; i < v.Len(); i++ {
				if v.At(i) != i {
					t.Errorf("frozen vector: At(%d) = %d", i, v.At(i))
					return
				}
				if got, ok := tab.Get(fmt.Sprint(i)); !ok || int(got) != i {
					t.Errorf("frozen table: Get(%d) = %d, %v", i, got, ok)
					return
				}
			}
		}(vec, tab)
		vec, keys, tab = &nextVec, nextKeys, &nextTab
	}
	wg.Wait()
}
