package join

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
)

// FuzzResidentStore drives one shard's store and exact index — the
// arenas, the copy-on-write entry table and the layered refs-only table
// — through random sequences of inserts, replacements, clones (a
// publish: the generation is frozen and the writer goes on in its
// clone), compactions and snapshot loads (the shard rebuilt from a copy
// of its tuples, as a load builds it), against a plain map model. After
// every step the writer's generation must read exactly as the model:
// every tuple at its ref, nil and empty attributes told apart, every key
// found at its ref and absent keys absent. Every generation a clone
// froze, and every tuple view read from one, must still read as it did
// then, however much was written, replaced or compacted since: the RCU
// contract a probe's results rely on. A load must copy its input's
// bytes, never alias them.
//
// A short run is wired into `make fuzz`; `go test -fuzz` digs deeper.
func FuzzResidentStore(f *testing.F) {
	f.Add([]byte{0, 5, 'a', 'b', 'c', 'd', 'e', 2, 0, 3, 'x', 'y', 'z', 1, 0, 4, 3, 5})
	f.Add([]byte{0, 0, 0, 1, 'k', 4, 0, 1, 'k', 2, 1, 0, 9, 3, 2, 5})
	f.Add([]byte("\x00\x90" + strings.Repeat("long key ", 20) + "\x02\x00\x03\x01\x00\x02\x03\x04\x05"))
	f.Add([]byte(strings.Repeat("\x00\x03abc\x02", 60) + "\x01\x07\x04\x03\x05"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput{b: data}
		sn := newShardSnap()
		var model []relation.Tuple // by local ref, deep copies
		refs := map[string]int{}
		type frozen struct {
			sn    *shardSnap
			state []relation.Tuple
		}
		var held []frozen
		type view struct{ got, want relation.Tuple }
		var views []view
		for step := 0; in.more() && step < 400; step++ {
			switch in.byte() % 6 {
			case 0: // insert, or replace when the key is resident
				tu := in.tuple(step)
				if lref, ok := refs[tu.Key]; ok {
					sn.tuples.replace(lref, &tu)
					model[lref] = deepCopy(tu)
					break
				}
				if _, ok := sn.exIdx.Get(tu.Key); ok {
					t.Fatalf("step %d: absent key %q found", step, tu.Key)
				}
				refs[tu.Key] = len(model)
				model = append(model, deepCopy(tu))
				sn.add(&tu, keyHash(tu.Key), len(model)-1, qgram.Key{})
			case 1: // replace a resident key's payload
				if len(model) == 0 {
					break
				}
				lref := int(in.byte()) % len(model)
				tu := in.tuple(step)
				tu.Key = model[lref].Key
				sn.tuples.replace(lref, &tu)
				model[lref] = deepCopy(tu)
			case 2: // publish: freeze this generation, write to its clone
				state := make([]relation.Tuple, len(model))
				copy(state, model)
				held = append(held, frozen{sn, state})
				if len(model) > 0 {
					lref := int(in.byte()) % len(model)
					views = append(views, view{sn.tuples.At(lref), model[lref]})
				}
				sn = sn.clone()
			case 3:
				sn.tuples.compact()
			case 4: // a load: the shard rebuilt from a copy of its tuples
				store := make([]relation.Tuple, len(model))
				for i, tu := range model {
					store[i] = deepCopy(tu)
				}
				// The one shard of a bulk build holds every tuple, under
				// the global refs 0..n-1.
				ix, err := BuildShardedRefIndex(Defaults(), 1, store)
				if err != nil {
					t.Fatalf("step %d: load: %v", step, err)
				}
				loaded := ix.shards[0].Load()
				for i := range store {
					got := loaded.tuples.At(i)
					if got.Key != "" && unsafe.StringData(got.Key) == unsafe.StringData(store[i].Key) {
						t.Fatalf("step %d: the loaded store aliases its input's key %q", step, got.Key)
					}
				}
				sn = loaded
			case 5: // look up a key that is not resident
				key := "absent " + strconv.Itoa(int(in.byte()))
				if _, ok := refs[key]; ok {
					break
				}
				if lref, ok := sn.exIdx.Get(key); ok {
					t.Fatalf("step %d: absent key %q found at %d", step, key, lref)
				}
			}
			checkStore(t, step, sn, model)
		}
		for i, h := range held {
			checkStore(t, -1-i, h.sn, h.state)
		}
		for i, v := range views {
			if !reflect.DeepEqual(v.got, v.want) {
				t.Fatalf("view %d read from a frozen generation changed: %#v, was %#v", i, v.got, v.want)
			}
		}
	})
}

// checkStore asserts that sn reads exactly as model.
func checkStore(t *testing.T, step int, sn *shardSnap, model []relation.Tuple) {
	t.Helper()
	if sn.tuples.Len() != len(model) || sn.exIdx.Len() != len(model) {
		t.Fatalf("step %d: %d tuples and %d exact keys, model has %d", step, sn.tuples.Len(), sn.exIdx.Len(), len(model))
	}
	for lref, want := range model {
		if got := sn.tuples.At(lref); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: ref %d reads %#v, want %#v", step, lref, got, want)
		}
		if got, ok := sn.exIdx.Get(want.Key); !ok || int(got) != lref {
			t.Fatalf("step %d: key %q found at %d (%v), want %d", step, want.Key, got, ok, lref)
		}
	}
}

func deepCopy(tu relation.Tuple) relation.Tuple {
	out := relation.Tuple{ID: tu.ID, Key: strings.Clone(tu.Key)}
	if tu.Attrs != nil {
		out.Attrs = make([]string, len(tu.Attrs))
		for i, a := range tu.Attrs {
			out.Attrs[i] = strings.Clone(a)
		}
	}
	return out
}

// fuzzInput reads a fuzz input as a stream of small values; an
// exhausted stream reads zeros.
type fuzzInput struct {
	b []byte
	i int
}

func (in *fuzzInput) more() bool { return in.i < len(in.b) }

func (in *fuzzInput) byte() byte {
	if in.i >= len(in.b) {
		return 0
	}
	in.i++
	return in.b[in.i-1]
}

// str reads a length byte and that many bytes; a length from 128 up
// is a repeat count for the string read after it (at most 127 bytes), so
// keys cross the one-byte length prefix.
func (in *fuzzInput) str() string {
	n, times := int(in.byte()), 1
	if n >= 128 {
		n, times = int(in.byte()&127), n-126
	}
	s := string(in.b[in.i:min(in.i+n, len(in.b))])
	in.i = min(in.i+n, len(in.b))
	return strings.Repeat(s, times)
}

// tuple reads a key and 0-3 attributes, or nil attributes.
func (in *fuzzInput) tuple(id int) relation.Tuple {
	tu := relation.Tuple{ID: id, Key: in.str()}
	if n := int(in.byte() % 5); n < 4 {
		tu.Attrs = make([]string, n)
		for i := range tu.Attrs {
			tu.Attrs[i] = in.str()
		}
	}
	return tu
}

// TestResidentStoreLargeItems: a key, an attribute or an attribute list
// larger than an arena slot gets a chunk of its own spanning several
// slots, and reads back whole through inserts, replacements, clones and
// compactions.
func TestResidentStoreLargeItems(t *testing.T) {
	big := func(c byte, n int) string { return strings.Repeat(string(c), n) }
	many := make([]string, 3000)
	for i := range many {
		many[i] = strconv.Itoa(i)
	}
	sn := newShardSnap()
	var model []relation.Tuple
	insert := func(tu relation.Tuple) {
		model = append(model, deepCopy(tu))
		sn.add(&tu, keyHash(tu.Key), len(model)-1, qgram.Key{})
	}
	insert(relation.Tuple{ID: 1, Key: "small", Attrs: []string{"a"}})
	insert(relation.Tuple{ID: 2, Key: big('k', 3*arenaSlotBytes+5), Attrs: []string{big('v', 2*arenaSlotBytes)}})
	insert(relation.Tuple{ID: 3, Key: "many", Attrs: many})
	insert(relation.Tuple{ID: 4, Key: "after"})
	checkStore(t, 0, sn, model)
	held := sn
	heldModel := append([]relation.Tuple(nil), model...)
	sn = sn.clone()
	tu := relation.Tuple{ID: 5, Key: model[2].Key, Attrs: []string{big('w', arenaSlotBytes+1)}}
	sn.tuples.replace(2, &tu)
	model[2] = deepCopy(tu)
	checkStore(t, 1, sn, model)
	sn.tuples.compact()
	checkStore(t, 2, sn, model)
	checkStore(t, 3, held, heldModel)
}
