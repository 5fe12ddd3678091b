package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHTTPLinkEmptyBatch: an explicitly empty key batch is a 400, not a
// silently empty 200.
func TestHTTPLinkEmptyBatch(t *testing.T) {
	_, ts := newTestServer(t)
	createAtlas(t, ts.URL)
	code, body := doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Keys: []string{}})
	if code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d %s", code, body)
	}
	if !strings.Contains(string(body), "no keys") {
		t.Fatalf("empty batch error opaque: %s", body)
	}
}

// TestHTTPLinkBatchLargerThanQueue: one link request may carry far more
// keys than the service has execution slots — slots bound concurrent
// requests, not keys — and every key gets its result in order.
func TestHTTPLinkBatchLargerThanQueue(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 8192})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	createAtlas(t, ts.URL)

	// 700 keys: several linkChunk multiples plus a remainder.
	keys := make([]string, 700)
	for i := range keys {
		if i%3 == 0 {
			keys[i] = "lago di como est"
		} else {
			keys[i] = fmt.Sprintf("missing key %d", i)
		}
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{
		Index: "atlas", Keys: keys, Strategy: "exact",
	})
	if code != http.StatusOK {
		t.Fatalf("oversized batch: %d %s", code, body)
	}
	var resp LinkResponseDTO
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(resp.Results) != len(keys) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(keys))
	}
	if resp.Session.Probes != len(keys) {
		t.Fatalf("session probes = %d, want %d", resp.Session.Probes, len(keys))
	}
	for i, kr := range resp.Results {
		if kr.Key != keys[i] {
			t.Fatalf("result %d key %q, want %q", i, kr.Key, keys[i])
		}
		hit := len(kr.Matches) > 0
		if want := i%3 == 0; hit != want {
			t.Fatalf("result %d (%q): hit=%v, want %v", i, kr.Key, hit, want)
		}
	}
}

// TestHTTPLinkDeadlineMidBatch: a deadline expiring while a batch is
// executing yields a 504, never a 200 carrying the partial results.
func TestHTTPLinkDeadlineMidBatch(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Close)
	s.testProbeDelay = func() { time.Sleep(20 * time.Millisecond) }
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	createAtlas(t, ts.URL)

	keys := make([]string, 50)
	for i := range keys {
		keys[i] = "lago di como est"
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{
		Index: "atlas", Keys: keys, TimeoutMillis: 50,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("mid-batch deadline: %d %s (partial results returned as complete?)", code, body)
	}
	if strings.Contains(string(body), `"results"`) {
		t.Fatalf("expired batch leaked results: %s", body)
	}
}

// TestHTTPCreateIndexShards: the wire shards option reaches the index,
// is reported back in index info and surfaces as a gauge; batch links
// feed the batch-size histogram.
func TestHTTPCreateIndexShards(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := doJSON(t, "POST", ts.URL+"/v1/indexes", CreateIndexRequest{
		Name:   "sharded",
		Shards: 3,
		Tuples: []TupleDTO{{Key: "via monte bianco nord 12"}, {Key: "lago di como est"}},
	})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	var info IndexInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if info.Shards != 3 {
		t.Fatalf("info.Shards = %d, want 3", info.Shards)
	}
	// A negative shard count is rejected as invalid.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/indexes", CreateIndexRequest{
		Name: "bad", Shards: -1, Tuples: []TupleDTO{{Key: "x"}},
	}); code != http.StatusBadRequest {
		t.Fatalf("negative shards: %d", code)
	}

	doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{
		Index: "sharded", Keys: []string{"via monte bianco nord 12", "lago di como est", "absent"},
	})
	code, body = doJSON(t, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`adaptivelink_index_shards{index="sharded"} 3`,
		"adaptivelink_link_batch_requests_total 1",
		`adaptivelink_link_batch_keys_bucket{le="4"} 1`,
		"adaptivelink_link_batch_keys_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// /v1/stats mirrors the shard count.
	code, body = doJSON(t, "GET", ts.URL+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if len(snap.Indexes) != 1 || snap.Indexes[0].Shards != 3 {
		t.Fatalf("stats shards = %+v", snap.Indexes)
	}
}
