package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"adaptivelink/internal/cluster"
)

// BenchmarkCreateIndex20k is one POST /v1/indexes of 20k generated
// tuples through the HTTP handler into a durable data dir, in the
// repository benchmark's create shape (4 shards, q 3, θ 0.75, profile
// "standard"): body read, decode, bulk build and the first snapshot.
// Each index is deleted again outside the timer.
func BenchmarkCreateIndex20k(b *testing.B) { benchCreate(b, false, "bench") }

// BenchmarkCreateIndex20kRepeatedKey is BenchmarkCreateIndex20k with the
// last tuple repeating the first one's key: the build meets the key
// twice, deduplicates the rows and builds again.
func BenchmarkCreateIndex20kRepeatedKey(b *testing.B) { benchCreate(b, true, "bench") }

// BenchmarkCreateIndex20kPair is two BenchmarkCreateIndex20k creates of
// different names sent at once: the service builds one index at a time.
func BenchmarkCreateIndex20kPair(b *testing.B) { benchCreate(b, false, "one", "two") }

// benchCreate times concurrent creates of the names, each from the same
// 20k tuples, the last repeating the first one's key if repeat is set.
func benchCreate(b *testing.B, repeat bool, names ...string) {
	req := createRequest(b, "", 20000)
	if repeat {
		req.Tuples[len(req.Tuples)-1].Key = req.Tuples[0].Key
	}
	bodies := make([][]byte, len(names))
	for i, name := range names {
		req.Name = name
		bodies[i] = marshal(b, req)
	}
	s := New(Config{DataDir: b.TempDir()})
	defer s.Close()
	h := NewHandler(s)
	serve := func(method, path string, body []byte, want int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			b.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
	}
	b.SetBytes(int64(len(bodies[0]) * len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				serve(http.MethodPost, "/v1/indexes", body, http.StatusCreated)
			}()
		}
		wg.Wait()
		b.StopTimer()
		for _, name := range names {
			serve(http.MethodDelete, "/v1/indexes/"+name, nil, http.StatusNoContent)
		}
		b.StartTimer()
	}
}

// BenchmarkRoutedCreate20k is one POST /v1/indexes of the 20k tuples
// through a router's handler, in the repository benchmark's routed
// shape: 8 logical shards over 2 groups of one durable node each (WAL
// fsync always), every node a Service on a loopback httptest server.
// The router decodes the body and prepares each group's upsert body
// from it, creates the index empty on both nodes and sends each its
// rows, which the node builds as a bulk load beside its WAL append.
// Node shards are the router's GOMAXPROCS, as in the daemon. Each index
// is deleted again outside the timer.
func BenchmarkRoutedCreate20k(b *testing.B) {
	req := createRequest(b, "bench", 20000)
	body := marshal(b, req)
	var groups [][]string
	for range 2 {
		node := New(Config{DataDir: b.TempDir()})
		defer node.Close()
		srv := httptest.NewServer(NewHandler(node))
		defer srv.Close()
		groups = append(groups, []string{srv.URL})
	}
	cl, err := cluster.New(cluster.Config{Map: cluster.Map{Shards: 8, Groups: groups}})
	if err != nil {
		b.Fatal(err)
	}
	router := New(Config{Cluster: cl})
	defer router.Close()
	h := NewHandler(router)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, resp := serveBody(h, http.MethodPost, "/v1/indexes", body); code != http.StatusCreated {
			b.Fatalf("create: %d %s", code, resp)
		}
		b.StopTimer()
		if code, resp := serveBody(h, http.MethodDelete, "/v1/indexes/bench", nil); code != http.StatusNoContent {
			b.Fatalf("delete: %d %s", code, resp)
		}
		b.StartTimer()
	}
}
