package cow

import (
	"fmt"
	"maps"
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

func TestFrozenContainersPanicOnWrite(t *testing.T) {
	v := vecOf(1, 2, 3)
	v.Clone()
	mustPanic(t, "Vec.Mut on a frozen generation", func() { v.Mut(0) })
	mustPanic(t, "Vec.Append on a frozen generation", func() { v.Append(4) })

	for _, folded := range []bool{true, false} {
		m := NewMap[int](0)
		for i := 0; i < 100; i++ {
			m.Put(fmt.Sprint(i), i)
		}
		if !folded {
			m = m.Clone() // base shared with the first generation
			m.Put("overlay", 1)
		}
		m.Clone()
		mustPanic(t, "Map.Put of a new key on a frozen generation", func() { m.Put("new", 1) })
		mustPanic(t, "Map.Put of a base key on a frozen generation", func() { m.Put("7", 1) })
		mustPanic(t, "Map.Own on a frozen generation", func() { m.Own() })
		if v, ok := m.Get("7"); !ok || v != 7 {
			t.Fatalf("frozen map lost a key: %d, %v", v, ok)
		}
	}
}

func mapContents(m *Map[int]) map[string]int {
	out := make(map[string]int, m.Len())
	for k, v := range m.All() {
		if _, dup := out[k]; dup {
			panic("key " + k + " yielded twice: the layers overlap")
		}
		out[k] = v
	}
	return out
}

// Every generation of a Map lineage keeps the contents it was frozen
// with across overlay growth, folds, overwrites of overlay keys and
// overwrites of shared-base keys (which fold first).
func TestMapGenerationsAreFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	type frozen struct {
		m    *Map[int]
		want map[string]int
	}
	var history []frozen
	first := NewMap[int](0)
	cur := &first
	model := make(map[string]int)
	folds, layered := 0, 0
	for gen := 0; gen < 200; gen++ {
		for op := rng.Intn(12); op > 0; op-- {
			k := fmt.Sprintf("key-%d", len(model))
			if rng.Intn(150) == 0 && len(model) > 0 {
				for k = range model { // overwrite some resident key
					break
				}
			}
			v := rng.Int()
			model[k] = v
			cur.Put(k, v)
		}
		if got := mapContents(cur); !maps.Equal(got, model) || cur.Len() != len(model) {
			t.Fatalf("generation %d diverged from the model (Len %d, want %d)", gen, cur.Len(), len(model))
		}
		for k, want := range model {
			if got, ok := cur.Get(k); !ok || got != want {
				t.Fatalf("generation %d: Get(%q) = %d, %v; want %d", gen, k, got, ok, want)
			}
			if got, ok := cur.GetBytes([]byte(k)); !ok || got != want {
				t.Fatalf("generation %d: GetBytes(%q) = %d, %v; want %d", gen, k, got, ok, want)
			}
		}
		if _, ok := cur.Get("absent"); ok {
			t.Fatalf("generation %d knows an absent key", gen)
		}
		next := cur.Clone()
		history = append(history, frozen{cur, maps.Clone(model)})
		if next.over == nil {
			folds++
		} else {
			layered++
			if len(next.over)*len(next.over) >= foldScale*len(next.base) {
				t.Fatalf("generation %d: overlay of %d keys on a base of %d survived Clone", gen, len(next.over), len(next.base))
			}
		}
		cur = &next
	}
	if folds < 5 || layered < 50 {
		t.Fatalf("lineage saw %d folded and %d layered generations; the schedule exercises too little", folds, layered)
	}
	for gen, h := range history {
		if got := mapContents(h.m); !maps.Equal(got, h.want) {
			t.Fatalf("generation %d changed after it was frozen", gen)
		}
	}
}

func TestMapOwnFoldsForBulkMutation(t *testing.T) {
	m := NewMap[int](0)
	for i := 0; i < 64; i++ {
		m.Put(fmt.Sprint(i), i)
	}
	parent := m
	m = parent.Clone()
	m.Put("extra", -1)
	own := m.Own()
	for k := range own {
		if k != "extra" && k != "3" {
			delete(own, k)
		}
	}
	if got := mapContents(&m); !maps.Equal(got, map[string]int{"extra": -1, "3": 3}) {
		t.Fatalf("after bulk delete through Own: %v", got)
	}
	if parent.Len() != 64 {
		t.Fatalf("bulk delete through the clone's Own reached the frozen parent: %d keys left", parent.Len())
	}
}

// Lookups allocate nothing on either layer, hit or miss.
func TestMapGetBytesZeroAllocs(t *testing.T) {
	m := NewMap[int](0)
	for i := 0; i < 64; i++ {
		m.Put(fmt.Sprint(i), i)
	}
	m = m.Clone()
	m.Put("overlay", 1)
	for _, key := range []string{"7", "overlay", "absent"} {
		b := []byte(key)
		if avg := testing.AllocsPerRun(100, func() { m.GetBytes(b) }); avg != 0 {
			t.Errorf("GetBytes(%q) allocated %.1f times per lookup", key, avg)
		}
	}
}

// Readers of frozen generations run beside the writer of the newest
// one with no synchronisation but the hand-over of the generation
// itself: the race detector holds the containers to that.
func TestReadersOfFrozenGenerationsRaceFree(t *testing.T) {
	vec := new(Vec[int])
	first := NewMap[int](0)
	m := &first
	var wg sync.WaitGroup
	for gen := 0; gen < 40; gen++ {
		for i := 0; i < 50; i++ {
			n := vec.Len()
			vec.Append(n)
			*vec.Mut(n / 2) = n / 2
			m.Put(fmt.Sprint(n), n)
		}
		nextVec, nextMap := vec.Clone(), m.Clone()
		wg.Add(1)
		go func(v *Vec[int], m *Map[int]) {
			defer wg.Done()
			for i := 0; i < v.Len(); i++ {
				if v.At(i) != i {
					t.Errorf("frozen vector: At(%d) = %d", i, v.At(i))
					return
				}
				if got, ok := m.Get(fmt.Sprint(i)); !ok || got != i {
					t.Errorf("frozen map: Get(%d) = %d, %v", i, got, ok)
					return
				}
			}
		}(vec, m)
		vec, m = &nextVec, &nextMap
	}
	wg.Wait()
}
