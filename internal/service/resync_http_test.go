package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"adaptivelink"
)

func getDigest(t *testing.T, base, name string) adaptivelink.IndexDigest {
	t.Helper()
	code, body := doJSON(t, "GET", base+"/v1/indexes/"+name+"/digest", nil)
	if code != http.StatusOK {
		t.Fatalf("digest: %d %s", code, body)
	}
	var d adaptivelink.IndexDigest
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("digest body: %v", err)
	}
	return d
}

func postResync(t *testing.T, base, name string, blob []byte) (int, []byte) {
	t.Helper()
	return rawDo(t, "POST", base+"/v1/indexes/"+name+"/resync", blob)
}

// TestHTTPDigestExportResync drives the node-side anti-entropy surface
// end to end: a diverged replica pulls the reference export, resyncs,
// and converges to the reference digest; a blank node bootstraps a
// missing index from the same stream.
func TestHTTPDigestExportResync(t *testing.T) {
	_, ref := newTestServer(t)
	createAtlas(t, ref.URL)

	d0 := getDigest(t, ref.URL, "atlas")
	if d0.Tuples != 3 || d0.Combined == "" || len(d0.Shards) == 0 {
		t.Fatalf("digest shape: %+v", d0)
	}
	// Digest is stable across reads, and changes with content.
	if d := getDigest(t, ref.URL, "atlas"); d.Combined != d0.Combined {
		t.Fatalf("digest unstable: %s then %s", d0.Combined, d.Combined)
	}
	code, body := doJSON(t, "POST", ref.URL+"/v1/indexes/atlas/upsert", UpsertRequest{
		Tuples: []TupleDTO{{ID: 9, Key: "passo dello stelvio 48"}},
	})
	if code != http.StatusOK {
		t.Fatalf("upsert: %d %s", code, body)
	}
	d1 := getDigest(t, ref.URL, "atlas")
	if d1.Combined == d0.Combined {
		t.Fatal("digest did not change after an upsert")
	}

	resp, err := http.Get(ref.URL + "/v1/indexes/atlas/export")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export content type %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %d %v", resp.StatusCode, err)
	}

	// A diverged replica (same name, older content) converges via resync.
	_, stale := newTestServer(t)
	createAtlas(t, stale.URL)
	if d := getDigest(t, stale.URL, "atlas"); d.Combined == d1.Combined {
		t.Fatal("stale replica already converged; fixture degenerate")
	}
	code, body = postResync(t, stale.URL, "atlas", blob)
	if code != http.StatusOK {
		t.Fatalf("resync: %d %s", code, body)
	}
	if d := getDigest(t, stale.URL, "atlas"); d.Combined != d1.Combined {
		t.Fatalf("post-resync digest %s, reference %s", d.Combined, d1.Combined)
	}
	// The repaired replica answers probes over the new content.
	code, body = doJSON(t, "POST", stale.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: "passo dello stelvio 48"})
	if code != http.StatusOK {
		t.Fatalf("link after resync: %d %s", code, body)
	}
	var lr LinkResponseDTO
	if err := json.Unmarshal(body, &lr); err != nil || len(lr.Results[0].Matches) == 0 {
		t.Fatalf("probe on resynced key found nothing: %s", body)
	}

	// A blank replacement node bootstraps the index from the stream.
	_, blank := newTestServer(t)
	code, body = postResync(t, blank.URL, "atlas", blob)
	if code != http.StatusOK {
		t.Fatalf("bootstrap resync: %d %s", code, body)
	}
	var info IndexInfo
	if err := json.Unmarshal(body, &info); err != nil || info.Size != 4 {
		t.Fatalf("bootstrap info: %s", body)
	}
	if d := getDigest(t, blank.URL, "atlas"); d.Combined != d1.Combined {
		t.Fatalf("bootstrap digest %s, reference %s", d.Combined, d1.Combined)
	}

	// Corrupt bytes are rejected; the replica keeps its state.
	code, body = postResync(t, stale.URL, "atlas", blob[:len(blob)-2])
	if code != http.StatusBadRequest {
		t.Fatalf("corrupt resync = %d %s", code, body)
	}
	if d := getDigest(t, stale.URL, "atlas"); d.Combined != d1.Combined {
		t.Fatal("failed resync changed the replica's content")
	}
	// Unknown index digests are 404.
	if code, _ := doJSON(t, "GET", ref.URL+"/v1/indexes/ghost/digest", nil); code != http.StatusNotFound {
		t.Fatalf("ghost digest = %d", code)
	}
}

// TestHTTPResyncDurable pins that a resynced durable node persists the
// repaired state: the bootstrapped index is durable from birth and logs
// the next upsert, and reopening the data dir recovers the resynced
// content with that upsert on top, still serving links.
func TestHTTPResyncDurable(t *testing.T) {
	_, ref := newTestServer(t)
	createAtlas(t, ref.URL)
	want := getDigest(t, ref.URL, "atlas")
	resp, err := http.Get(ref.URL + "/v1/indexes/atlas/export")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	dataDir := t.TempDir()
	s := New(Config{Workers: 2, DataDir: dataDir})
	ts := httptest.NewServer(NewHandler(s))
	code, body := postResync(t, ts.URL, "atlas", blob)
	var info IndexInfo
	if code != http.StatusOK || json.Unmarshal(body, &info) != nil || !info.Durable {
		t.Fatalf("durable bootstrap resync: %d %s", code, body)
	}
	if d := getDigest(t, ts.URL, "atlas"); d.Combined != want.Combined {
		t.Fatalf("durable resync digest %s, want %s", d.Combined, want.Combined)
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/indexes/atlas/upsert", UpsertRequest{
		Tuples: []TupleDTO{{ID: 9, Key: "passo dello stelvio 48"}},
	})
	if code != http.StatusOK {
		t.Fatalf("upsert after bootstrap: %d %s", code, body)
	}
	if d := getDigest(t, ts.URL, "atlas"); d.WALRecords != 1 {
		t.Fatalf("upsert after bootstrap logged %d records, want 1", d.WALRecords)
	}
	want = getDigest(t, ts.URL, "atlas")
	ts.Close()
	s.Close()

	s2 := New(Config{Workers: 2, DataDir: dataDir})
	defer s2.Close()
	names, err := s2.LoadStored()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != "[atlas]" {
		t.Fatalf("reloaded %v, want [atlas]", names)
	}
	ts2 := httptest.NewServer(NewHandler(s2))
	defer ts2.Close()
	if d := getDigest(t, ts2.URL, "atlas"); d.Combined != want.Combined {
		t.Fatalf("reopened digest %s, want %s", d.Combined, want.Combined)
	}
	code, body = doJSON(t, "POST", ts2.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: "passo dello stelvio 48"})
	var lr LinkResponseDTO
	if code != http.StatusOK || json.Unmarshal(body, &lr) != nil || len(lr.Results[0].Matches) == 0 {
		t.Fatalf("link after restart: %d %s", code, body)
	}
}

// TestClusterRouterRefusesReplicaSurface: a router's index holds no
// replica state, so the router answers digest, export and resync with
// 400 (the facade's refusal), while an unknown name's export is 404 on
// router and node alike, and a resync sent to a router registers
// nothing.
func TestClusterRouterRefusesReplicaSurface(t *testing.T) {
	_, node := newTestServer(t)
	createAtlas(t, node.URL)
	code, blob := rawDo(t, "GET", node.URL+"/v1/indexes/atlas/export", nil)
	if code != http.StatusOK {
		t.Fatalf("node export: %d %s", code, blob)
	}

	router := startCluster(t, "router", 4, []int{1, 1})
	createAtlas(t, router.srv.URL)
	for _, c := range []struct{ method, path string }{
		{"GET", "/v1/indexes/atlas/digest"},
		{"GET", "/v1/indexes/atlas/export"},
		{"POST", "/v1/indexes/atlas/resync"},
		{"POST", "/v1/indexes/ghost/resync"},
	} {
		code, body := rawDo(t, c.method, router.srv.URL+c.path, blob)
		if ec, _ := envelope(t, string(body)); code != http.StatusBadRequest || ec != CodeInvalid {
			t.Fatalf("router %s %s: %d %s, want 400 invalid", c.method, c.path, code, body)
		}
	}
	for _, base := range []string{router.srv.URL, node.URL} {
		if code, body := rawDo(t, "GET", base+"/v1/indexes/ghost/export", nil); code != http.StatusNotFound {
			t.Fatalf("%s: export of an unknown index: %d %s, want 404", base, code, body)
		}
	}
	code, body := router.do(t, "GET", "/v1/indexes", "")
	var list []IndexInfo
	if err := json.Unmarshal([]byte(body), &list); code != http.StatusOK || err != nil || len(list) != 1 || list[0].Name != "atlas" {
		t.Fatalf("router lists %d %s after the refused resyncs, want atlas alone", code, body)
	}
}

// A node's export that fails while writing the snapshot is a fault of
// the transfer, not of the request: it is passed on as it is, not as
// invalid (which the router's refusal is).
func TestExportWriteFailureNotInvalid(t *testing.T) {
	svc := New(Config{})
	t.Cleanup(svc.Close)
	if _, err := svc.CreateIndex("atlas", adaptivelink.IndexOptions{},
		[]adaptivelink.Tuple{{Key: "borgo santa lucia nord"}}); err != nil {
		t.Fatal(err)
	}
	broken := errors.New("connection reset")
	err := svc.ExportIndex("atlas", failingWriter{broken})
	if !errors.Is(err, broken) || errors.Is(err, ErrInvalid) {
		t.Fatalf("ExportIndex into a failing writer = %v, want the write error, not invalid", err)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// rawDo sends one request with a raw body.
func rawDo(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}
