package stream

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"adaptivelink/internal/relation"
)

// fillRows is a producer of n rows keyed k0, k1, ...; it fails after
// row failAt when failAt >= 0.
func fillRows(rows []relation.Tuple, failAt int) func(publish func(int)) error {
	return func(publish func(int)) error {
		for i := range rows {
			if i == failAt {
				return errors.New("producer failed")
			}
			rows[i] = relation.Tuple{ID: i, Key: fmt.Sprintf("k%d", i)}
			publish(i + 1)
		}
		return nil
	}
}

// A Rows source hands over the same rows through Adopt whether they are
// complete or still filling in: Adopt's counts ascend to the row count,
// and a producer's error ends them. Complete rows also read through
// Next; rows still filling in refuse it. Adopted, the source is
// exhausted.
func TestRows(t *testing.T) {
	const n = 3*rowsChunk + 5
	want := make([]relation.Tuple, n)
	fillRows(want, -1)(func(int) {})
	if got := drain(t, RowsOf(append([]relation.Tuple(nil), want...))); !reflect.DeepEqual(got, want) {
		t.Fatalf("Next over complete rows yields %d rows, want %d", len(got), n)
	}
	sources := map[string]func() *Rows{
		"complete": func() *Rows { return RowsOf(append([]relation.Tuple(nil), want...)) },
		"filling":  func() *Rows { rows := make([]relation.Tuple, n); return Filling(rows, fillRows(rows, -1)) },
	}
	for name, src := range sources {
		r := src()
		if r.EstimatedSize() != n {
			t.Fatalf("%s: EstimatedSize %d, want %d", name, r.EstimatedSize(), n)
		}
		rows, ready := r.Adopt()
		last := 0
		for c, err := range ready {
			if err != nil || c <= last || c > n {
				t.Fatalf("%s: ready yields %d (%v) after %d", name, c, err, last)
			}
			if !reflect.DeepEqual(rows[last:c], want[last:c]) {
				t.Fatalf("%s: rows %d..%d differ", name, last, c)
			}
			last = c
		}
		if last != n {
			t.Fatalf("%s: ready ends at %d of %d rows", name, last, n)
		}
		if _, ok, err := r.Next(); ok || err != nil {
			t.Fatalf("%s: an adopted source yields more (%v, %v)", name, ok, err)
		}
	}

	rows := make([]relation.Tuple, n)
	_, ready := Filling(rows, fillRows(rows, rowsChunk+1)).Adopt()
	var last int
	var err error
	for c, e := range ready {
		if e != nil {
			err = e
			break
		}
		last = c
	}
	if err == nil || last != rowsChunk {
		t.Fatalf("a failing producer: ready reaches %d and ends with %v, want %d and its error", last, err, rowsChunk)
	}
	if _, _, err := Filling(rows, fillRows(rows, -1)).Next(); err == nil {
		t.Fatal("Next over rows still filling in: no error")
	}
}
