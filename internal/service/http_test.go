package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 4})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, raw
}

func createAtlas(t *testing.T, base string) {
	t.Helper()
	code, body := doJSON(t, "POST", base+"/v1/indexes", CreateIndexRequest{
		Name: "atlas",
		Tuples: []TupleDTO{
			{ID: 0, Key: "via monte bianco nord 12", Attrs: []string{"alpine"}},
			{ID: 1, Key: "lago di como est"},
			{ID: 2, Key: "valle verde ovest 9"},
		},
	})
	if code != http.StatusCreated {
		t.Fatalf("create index: %d %s", code, body)
	}
}

// A request body is one JSON value: trailing garbage or a second
// concatenated object is refused whole with 400 invalid, on every
// endpoint that reads a body, and nothing of it is applied. Trailing
// whitespace is part of the one value.
func TestHTTPRejectsTrailingData(t *testing.T) {
	s, ts := newTestServer(t)
	createAtlas(t, ts.URL)
	for _, tc := range []struct {
		name, path, body string
		ok               int
	}{
		{"create", "/v1/indexes", `{"name":"extra","tuples":[{"id":0,"key":"lago maggiore"}]}`, http.StatusCreated},
		{"upsert", "/v1/indexes/atlas/upsert", `{"tuples":[{"id":9,"key":"corso nuovo sud 3"}]}`, http.StatusOK},
		{"link", "/v1/link", `{"index":"atlas","key":"lago di como est"}`, http.StatusOK},
	} {
		before := s.ListIndexes()
		for _, tail := range []string{" trailing garbage", tc.body, "]", "\"x\""} {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body+tail))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var e ErrorDTO
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &e) != nil || e.Error.Code != CodeInvalid ||
				!strings.Contains(e.Error.Message, "trailing data after the JSON value") {
				t.Fatalf("%s with %q appended: %d %s, want 400 invalid naming the trailing data", tc.name, tail, resp.StatusCode, raw)
			}
		}
		if after := s.ListIndexes(); len(after) != len(before) || after[0].Size != before[0].Size {
			t.Fatalf("%s: a refused body changed the indexes: %+v, was %+v", tc.name, after, before)
		}
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body+" \n\t"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.ok {
			t.Fatalf("%s with trailing whitespace: %d, want %d", tc.name, resp.StatusCode, tc.ok)
		}
		if tc.name == "create" {
			if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/indexes/extra", nil); code != http.StatusNoContent {
				t.Fatalf("delete extra = %d", code)
			}
		}
	}
}

func TestHTTPIndexLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	createAtlas(t, ts.URL)

	// Duplicate name conflicts.
	code, _ := doJSON(t, "POST", ts.URL+"/v1/indexes", CreateIndexRequest{Name: "atlas"})
	if code != http.StatusConflict {
		t.Fatalf("duplicate create = %d", code)
	}
	// Malformed body.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/indexes", strings.NewReader("{nope"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", resp.StatusCode)
	}

	code, body := doJSON(t, "GET", ts.URL+"/v1/indexes", nil)
	var list []IndexInfo
	if code != http.StatusOK || json.Unmarshal(body, &list) != nil || len(list) != 1 || list[0].Size != 3 {
		t.Fatalf("list = %d %s", code, body)
	}
	code, body = doJSON(t, "GET", ts.URL+"/v1/indexes/atlas", nil)
	var info IndexInfo
	if code != http.StatusOK || json.Unmarshal(body, &info) != nil || info.Name != "atlas" {
		t.Fatalf("get = %d %s", code, body)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/indexes/nosuch", nil); code != http.StatusNotFound {
		t.Fatalf("get unknown = %d", code)
	}

	code, body = doJSON(t, "POST", ts.URL+"/v1/indexes/atlas/upsert", UpsertRequest{
		Tuples: []TupleDTO{{Key: "corso nuovo sud 3"}, {Key: "lago di como est", Attrs: []string{"fresh"}}},
	})
	var up UpsertResponse
	if code != http.StatusOK || json.Unmarshal(body, &up) != nil || up.Inserted != 1 || up.Updated != 1 || up.Size != 4 {
		t.Fatalf("upsert = %d %s", code, body)
	}

	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/indexes/atlas", nil); code != http.StatusNoContent {
		t.Fatalf("delete = %d", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/indexes/atlas", nil); code != http.StatusNotFound {
		t.Fatalf("delete again = %d", code)
	}
}

func TestHTTPCreateIndexMeasures(t *testing.T) {
	s, ts := newTestServer(t)
	for _, m := range []string{"jaccard", "dice", "cosine", "overlap", ""} {
		name := "m-" + m
		if m == "" {
			name = "m-default"
		}
		code, body := doJSON(t, "POST", ts.URL+"/v1/indexes", CreateIndexRequest{
			Name: name, Measure: m, Q: 2, Theta: 0.5,
			Tuples: []TupleDTO{{Key: "some reference key"}},
		})
		if code != http.StatusCreated {
			t.Errorf("measure %q: %d %s", m, code, body)
		}
	}
	// An unknown name is rejected, not silently built as Jaccard.
	code, body := doJSON(t, "POST", ts.URL+"/v1/indexes", CreateIndexRequest{
		Name: "m-typo", Measure: "jacard", Tuples: []TupleDTO{{Key: "some reference key"}},
	})
	if code != http.StatusBadRequest || !strings.Contains(string(body), `"code":"invalid"`) ||
		!strings.Contains(string(body), "jaccard, dice, cosine or overlap") {
		t.Errorf("measure \"jacard\": %d %s, want 400 invalid naming the accepted measures", code, body)
	}
	if _, err := s.GetIndex("m-typo"); err == nil {
		t.Error("rejected create still registered the index")
	}
	if got := s.Config().MaxBatch; got != 4096 {
		t.Fatalf("defaulted MaxBatch = %d", got)
	}
}

func TestHTTPLink(t *testing.T) {
	_, ts := newTestServer(t)
	createAtlas(t, ts.URL)

	// Single-key form.
	code, body := doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: "lago di como est"})
	var lr LinkResponseDTO
	if code != http.StatusOK || json.Unmarshal(body, &lr) != nil {
		t.Fatalf("link = %d %s", code, body)
	}
	if len(lr.Results) != 1 || len(lr.Results[0].Matches) != 1 || !lr.Results[0].Matches[0].Exact {
		t.Fatalf("link results = %+v", lr.Results)
	}
	// Batch with a variant: escalated by the session, visible in stats.
	code, body = doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{
		Index: "atlas",
		Keys:  []string{"via monte bianca nord 12", "valle verde ovest 9"},
	})
	if code != http.StatusOK {
		t.Fatalf("batch link = %d %s", code, body)
	}
	if json.Unmarshal(body, &lr) != nil || lr.Session.Escalations != 1 {
		t.Fatalf("batch session = %s", body)
	}
	if m := lr.Results[0].Matches; len(m) != 1 || m[0].Exact || m[0].RefKey != "via monte bianco nord 12" {
		t.Fatalf("variant matches = %+v", m)
	}

	// Validation surface.
	for _, c := range []struct {
		req  LinkRequestDTO
		want int
	}{
		{LinkRequestDTO{Index: "atlas"}, http.StatusBadRequest},
		{LinkRequestDTO{Index: "atlas", Key: "a", Keys: []string{"b"}}, http.StatusBadRequest},
		{LinkRequestDTO{Index: "atlas", Key: "a", Strategy: "psychic"}, http.StatusBadRequest},
		{LinkRequestDTO{Index: "nosuch", Key: "a"}, http.StatusNotFound},
	} {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/link", c.req); code != c.want {
			t.Errorf("link %+v = %d, want %d", c.req, code, c.want)
		}
	}
}

// TestHTTPConcurrentLinkLoad holds 64 concurrent in-flight /v1/link
// requests against the handler: all must come back 2xx.
func TestHTTPConcurrentLinkLoad(t *testing.T) {
	_, ts := newTestServer(t)
	createAtlas(t, ts.URL)
	keys := []string{"via monte bianco nord 12", "lago di como est", "valle verde ovest 9", "via monte bianca nord 12"}
	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			code, body := doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: keys[c%len(keys)]})
			if code != http.StatusOK {
				errs <- fmt.Errorf("client %d: %d %s", c, code, body)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHTTPStatsMetricsHealth(t *testing.T) {
	s, ts := newTestServer(t)
	createAtlas(t, ts.URL)
	doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: "lago di como est"})

	code, body := doJSON(t, "GET", ts.URL+"/v1/stats", nil)
	var snap Snapshot
	if code != http.StatusOK || json.Unmarshal(body, &snap) != nil {
		t.Fatalf("stats = %d %s", code, body)
	}
	if len(snap.Indexes) != 1 || snap.Indexes[0].Probes != 1 || snap.Workers != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}

	code, body = doJSON(t, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `adaptivelink_probes_total{index="atlas"} 1`) {
		t.Fatalf("metrics = %d %s", code, body)
	}

	if code, body = doJSON(t, "GET", ts.URL+"/healthz", nil); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %s", code, body)
	}
	// Drain flips health and rejects links with 503.
	if err := s.Drain(t.Context()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code, _ = doJSON(t, "GET", ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d", code)
	}
	if code, _ = doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: "x"}); code != http.StatusServiceUnavailable {
		t.Fatalf("link during drain = %d", code)
	}
}
