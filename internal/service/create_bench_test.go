package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"adaptivelink"
)

// BenchmarkCreateIndex20k is one POST /v1/indexes of 20k generated
// tuples through the HTTP handler into a durable data dir, in the
// repository benchmark's create shape (4 shards, q 3, θ 0.75, profile
// "standard"): body read, decode, bulk build and the first snapshot.
// Each index is deleted again outside the timer.
func BenchmarkCreateIndex20k(b *testing.B) {
	data, err := adaptivelink.GenerateTestData(42, 20000, 1, adaptivelink.PatternUniform, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	req := CreateIndexRequest{Name: "bench", Q: 3, Theta: 0.75, Shards: 4, Profile: "standard",
		Tuples: make([]TupleDTO, len(data.Parent))}
	for i, t := range data.Parent {
		req.Tuples[i] = TupleDTO{ID: t.ID, Key: t.Key, Attrs: t.Attrs}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{DataDir: b.TempDir()})
	defer s.Close()
	h := NewHandler(s)
	serve := func(method, path string, body []byte, want int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != want {
			b.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(http.MethodPost, "/v1/indexes", body, http.StatusCreated)
		b.StopTimer()
		serve(http.MethodDelete, "/v1/indexes/bench", nil, http.StatusNoContent)
		b.StartTimer()
	}
}
