package relation

import "testing"

func TestSchemaColumns(t *testing.T) {
	s := NewSchema("location", "date", "severity")
	got := s.Columns()
	want := []string{"location", "date", "severity"}
	if len(got) != len(want) {
		t.Fatalf("Columns() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Columns()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSchemaAttrIndex(t *testing.T) {
	s := NewSchema("k", "a", "b", "c")
	cases := []struct {
		name string
		want int
	}{{"a", 0}, {"b", 1}, {"c", 2}, {"k", -1}, {"missing", -1}}
	for _, c := range cases {
		if got := s.AttrIndex(c.name); got != c.want {
			t.Errorf("AttrIndex(%q) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSchemaEqual(t *testing.T) {
	a := NewSchema("k", "x", "y")
	if !a.Equal(NewSchema("k", "x", "y")) {
		t.Error("identical schemas reported unequal")
	}
	if a.Equal(NewSchema("k2", "x", "y")) {
		t.Error("different key names reported equal")
	}
	if a.Equal(NewSchema("k", "x")) {
		t.Error("different attr counts reported equal")
	}
	if a.Equal(NewSchema("k", "x", "z")) {
		t.Error("different attr names reported equal")
	}
}

func TestAppendAssignsSequentialIDs(t *testing.T) {
	r := New("r", NewSchema("k", "v"))
	for i := 0; i < 10; i++ {
		id := r.Append("key", "val")
		if id != i {
			t.Fatalf("Append #%d returned id %d", i, id)
		}
	}
	if r.Len() != 10 {
		t.Fatalf("Len() = %d, want 10", r.Len())
	}
	for i := 0; i < 10; i++ {
		if r.At(i).ID != i {
			t.Errorf("At(%d).ID = %d", i, r.At(i).ID)
		}
	}
}

func TestAppendTupleOverwritesID(t *testing.T) {
	r := New("r", NewSchema("k"))
	id := r.AppendTuple(Tuple{ID: 999, Key: "a"})
	if id != 0 || r.At(0).ID != 0 {
		t.Errorf("AppendTuple kept stale ID: returned %d, stored %d", id, r.At(0).ID)
	}
}

func TestRelationClone(t *testing.T) {
	r := New("r", NewSchema("k", "v"))
	r.Append("a", "1")
	c := r.Clone()
	c.Tuples()[0].Attrs[0] = "mutated"
	if r.At(0).Attrs[0] != "1" {
		t.Error("Clone shares tuple payloads")
	}
}

func TestKeysAndKeySet(t *testing.T) {
	r := FromKeys("r", "a", "b", "a")
	keys := r.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "a" {
		t.Errorf("Keys() = %v", keys)
	}
	set := r.KeySet()
	if len(set) != 2 {
		t.Errorf("KeySet() has %d entries, want 2", len(set))
	}
}

func TestSortByKeyReassignsIDs(t *testing.T) {
	r := FromKeys("r", "c", "a", "b")
	r.SortByKey()
	want := []string{"a", "b", "c"}
	for i, k := range want {
		if r.At(i).Key != k || r.At(i).ID != i {
			t.Errorf("after sort At(%d) = %v, want key %q id %d", i, r.At(i), k, i)
		}
	}
}
