package cluster

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/wire"
)

// The admin fan-outs (delete, snapshot) hit every replica of every
// group and tolerate exactly the statuses their contract names.
func TestDeleteAndSnapshotFanOut(t *testing.T) {
	okAll := func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodDelete:
			w.WriteHeader(http.StatusNoContent)
		case strings.HasSuffix(r.URL.Path, "/snapshot"):
			w.Write([]byte(`{}`))
		default:
			w.Write([]byte(`{}`))
		}
	}
	n0, h0 := fakeNode(t, okAll)
	n1, h1 := fakeNode(t, okAll)
	c := testClient(t, [][]string{{n0.URL}, {n1.URL}})

	if err := c.SnapshotIndex("ix"); err != nil {
		t.Fatalf("SnapshotIndex: %v", err)
	}
	if err := c.SnapshotIndex("ghost"); err == nil {
		t.Fatal("SnapshotIndex on an unregistered index succeeded")
	}
	if err := c.DeleteIndex("ix"); err != nil {
		t.Fatalf("DeleteIndex: %v", err)
	}
	if names := c.Names(); len(names) != 0 {
		t.Fatalf("DeleteIndex left %v registered", names)
	}
	if err := c.DeleteIndex("ix"); err == nil {
		t.Fatal("second DeleteIndex succeeded")
	}
	if h0.Load() != 2 || h1.Load() != 2 {
		t.Fatalf("replica hits = %d/%d, want 2/2 (every admin op reaches every replica)", h0.Load(), h1.Load())
	}
}

// Health reports the routing table with per-replica liveness; Map and
// Ranges expose the table the report is derived from.
func TestHealthAndRoutingTable(t *testing.T) {
	up, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	down, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	up2, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	c, err := New(Config{Map: Map{Shards: 5, Groups: [][]string{{up.URL, down.URL}, {up2.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	if m := c.Map(); m.Shards != 5 || len(m.Groups) != 2 {
		t.Fatalf("Map = %+v", m)
	}
	rs := c.Map().Ranges()
	if len(rs) != 2 || rs[0].Lo != 0 || rs[0].Hi != 3 || rs[1].Lo != 3 || rs[1].Hi != 5 {
		t.Fatalf("Ranges = %+v, want contiguous [0,3) / [3,5)", rs)
	}

	hs := c.Health(context.Background())
	if len(hs) != 2 || hs[0].Lo != 0 || hs[0].Hi != 3 {
		t.Fatalf("Health = %+v", hs)
	}
	if !hs[0].Replicas[0].Healthy || hs[0].Replicas[1].Healthy || !hs[1].Replicas[0].Healthy {
		t.Fatalf("liveness = %+v, want up/down/up", hs)
	}
	if hs[0].Replicas[1].Addr != down.URL {
		t.Fatalf("replica addr = %q", hs[0].Replicas[1].Addr)
	}
}

// Counts reports one ok and one error count per replica and do() bumps
// them.
func TestNodeRequestCounters(t *testing.T) {
	up, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	c, err := New(Config{Map: Map{Shards: 1, Groups: [][]string{{up.URL}}}})
	if err != nil {
		t.Fatal(err)
	}

	c.Health(context.Background())
	if got, want := c.Counts().Nodes, []NodeCounts{{Addr: up.URL, OK: 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("node counts = %+v, want %+v", got, want)
	}
}

// The Resident surface: a view dispatches probes per mode, and a failed
// Upsert returns its error without recording it on the view, so the
// view's probes keep working.
func TestResidentViewSurface(t *testing.T) {
	node, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/upsert") {
			w.Write([]byte(`{"inserted":1,"updated":0,"size":1}`))
			return
		}
		linkOK(wire.MatchDTO{RefKey: "alpha", Similarity: 1, Exact: true})(w, r)
	})
	c := testClient(t, [][]string{{node.URL}})
	v, err := c.Bind(context.Background(), "ix")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bind(context.Background(), "ghost"); err == nil {
		t.Fatal("Bind on an unregistered index succeeded")
	}

	if ins, upd, err := v.Upsert([]relation.Tuple{{Key: "alpha"}}); ins != 1 || upd != 0 || err != nil {
		t.Fatalf("Upsert = %d/%d, %v", ins, upd, err)
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d after the node reported 1 insert", v.Len())
	}
	if got := v.Probe(join.Approx, "alpha"); len(got) != 1 || got[0].Tuple.Key != "alpha" {
		t.Fatalf("Probe(Approx) = %+v", got)
	}
	if got := v.Probe(join.Exact, "alpha"); len(got) != 1 {
		t.Fatalf("Probe(Exact) = %+v", got)
	}
	if got := v.ProbeBatch(join.Approx, []string{"alpha", "alpha"}); len(got) != 2 || len(got[1]) != 1 {
		t.Fatalf("ProbeBatch = %+v", got)
	}

	// A dead cluster fails the write to its caller; the view's probe
	// state stays clean.
	node.Close()
	if _, _, err := v.Upsert([]relation.Tuple{{Key: "beta"}}); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("Upsert on a dead cluster = %v, want ErrNodeUnavailable", err)
	}
	if err := v.TransportErr(); err != nil {
		t.Fatalf("TransportErr after a failed Upsert = %v, want nil", err)
	}
	if v.Len() != 1 {
		t.Fatalf("Len advanced to %d on a failed write", v.Len())
	}
}
