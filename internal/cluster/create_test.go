package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"adaptivelink"
	"adaptivelink/internal/normalize"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/stream"
	"adaptivelink/internal/wire"
)

// A routed create prepares each group's upsert body while its rows are
// still being read, and contacts no node before the last row is. Each
// group then takes the empty create and one upsert whose body is
// json.Marshal's encoding of the group's rows, keys normalised, in
// arrival order — the bytes a routed upsert of the normalised rows
// sends — and the router's sequence numbers the keys in first-seen
// order, a key the rows repeat once normalised counted once. A source
// that fails at its last row contacts no node and registers nothing.
func TestCreateIndexPreparesGroupBodies(t *testing.T) {
	const n = 700 // several publish chunks; the last 50 rows repeat keys
	key := func(i int) string {
		if i >= 650 {
			return fmt.Sprintf("via monte rosa %d", i-650)
		}
		return fmt.Sprintf("Via  Monte Rosa %d", i)
	}
	var mu sync.Mutex
	var hits atomic.Int64
	got := make([][]string, 2) // per group: "METHOD path" of each request, then the upsert body
	var groups [][]string
	for g := range got {
		srv, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			raw, _ := io.ReadAll(r.Body)
			mu.Lock()
			got[g] = append(got[g], r.Method+" "+r.URL.Path)
			if r.URL.Path == "/v1/indexes/ix/upsert" {
				got[g] = append(got[g], string(raw))
			}
			mu.Unlock()
			if r.URL.Path == "/v1/indexes" {
				w.WriteHeader(http.StatusCreated)
			}
			w.Write([]byte(`{}`))
		})
		groups = append(groups, []string{srv.URL})
	}
	c, err := New(Config{Map: Map{Shards: 8, Groups: groups}})
	if err != nil {
		t.Fatal(err)
	}
	source := func(failLast bool) adaptivelink.Source {
		rows := make([]relation.Tuple, n)
		return stream.Filling(rows, func(publish func(done int)) error {
			for i := range rows {
				if i == n-1 {
					if hits.Load() != 0 {
						return errors.New("a node was contacted before the last row was read")
					}
					if failLast {
						return errors.New("the last row does not decode")
					}
				}
				rows[i] = relation.Tuple{ID: i, Key: key(i), Attrs: []string{strconv.Itoa(i)}}
				publish(i + 1)
			}
			return nil
		})
	}
	opts := adaptivelink.IndexOptions{Profile: "standard"}

	if _, err := c.CreateIndex("ix", opts, source(true)); err == nil || hits.Load() != 0 || len(c.Names()) != 0 {
		t.Fatalf("a source failing at its last row: err %v, %d node requests, registered %v", err, hits.Load(), c.Names())
	}
	if _, err := c.CreateIndex("ix", opts, source(false)); err != nil {
		t.Fatal(err)
	}

	norm, err := normalize.ProfileNamed(opts.Profile)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]wire.TupleDTO, len(groups))
	seq := make(map[string]int)
	for i := 0; i < n; i++ {
		k := norm.Apply(key(i))
		g := c.cfg.Map.home(k)
		want[g] = append(want[g], wire.TupleDTO{ID: i, Key: k, Attrs: []string{strconv.Itoa(i)}})
		if _, ok := seq[k]; !ok {
			seq[k] = len(seq)
		}
	}
	if len(seq) != 650 {
		t.Fatalf("the profile folds the rows into %d keys, want 650", len(seq))
	}
	for g := range groups {
		body, err := json.Marshal(wire.UpsertRequest{Tuples: want[g]})
		if err != nil {
			t.Fatal(err)
		}
		if exp := []string{"POST /v1/indexes", "POST /v1/indexes/ix/upsert", string(body)}; !reflect.DeepEqual(got[g], exp) {
			t.Fatalf("group %d took %.300q, want %.300q", g, got[g], exp)
		}
	}
	st, _ := c.state("ix")
	if !reflect.DeepEqual(st.seq, seq) {
		t.Fatalf("the router's sequence differs from first-seen key order")
	}
}
