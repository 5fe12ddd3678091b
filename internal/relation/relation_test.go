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
