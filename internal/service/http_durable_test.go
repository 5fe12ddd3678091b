package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptivelink"
	"adaptivelink/internal/cluster"
	"adaptivelink/internal/store"
)

func newDurableServer(t *testing.T, dataDir string) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, DataDir: dataDir})
	if _, err := s.LoadStored(); err != nil {
		t.Fatalf("LoadStored: %v", err)
	}
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return s, ts
}

// TestHTTPErrorEnvelope pins the unified v1 error contract: every error
// path answers with {"error":{"code":...,"message":...}}, the code
// drawn from the closed set and matched to the HTTP status.
func TestHTTPErrorEnvelope(t *testing.T) {
	s, ts := newTestServer(t)
	createAtlas(t, ts.URL)
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
		code   string
	}{
		{"malformed body", "POST", "/v1/indexes", "not json", http.StatusBadRequest, CodeInvalid},
		{"bad index name", "POST", "/v1/indexes", CreateIndexRequest{Name: "no/slashes"}, http.StatusBadRequest, CodeInvalid},
		{"duplicate index", "POST", "/v1/indexes", CreateIndexRequest{Name: "atlas"}, http.StatusConflict, CodeExists},
		{"get missing index", "GET", "/v1/indexes/ghost", nil, http.StatusNotFound, CodeNotFound},
		{"upsert missing index", "POST", "/v1/indexes/ghost/upsert", UpsertRequest{}, http.StatusNotFound, CodeNotFound},
		{"delete missing index", "DELETE", "/v1/indexes/ghost", nil, http.StatusNotFound, CodeNotFound},
		{"snapshot missing index", "POST", "/v1/indexes/ghost/snapshot", nil, http.StatusNotFound, CodeNotFound},
		{"snapshot in-memory index", "POST", "/v1/indexes/atlas/snapshot", nil, http.StatusBadRequest, CodeInvalid},
		{"link no keys", "POST", "/v1/link", LinkRequestDTO{Index: "atlas"}, http.StatusBadRequest, CodeInvalid},
		{"link key and keys", "POST", "/v1/link", LinkRequestDTO{Index: "atlas", Key: "a", Keys: []string{"b"}}, http.StatusBadRequest, CodeInvalid},
		{"link bad strategy", "POST", "/v1/link", LinkRequestDTO{Index: "atlas", Key: "a", Strategy: "psychic"}, http.StatusBadRequest, CodeInvalid},
		{"link missing index", "POST", "/v1/link", LinkRequestDTO{Index: "ghost", Key: "a"}, http.StatusNotFound, CodeNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := doJSON(t, c.method, ts.URL+c.path, c.body)
			if status != c.status {
				t.Fatalf("status = %d, want %d (%s)", status, c.status, body)
			}
			var dto ErrorDTO
			if err := json.Unmarshal(body, &dto); err != nil {
				t.Fatalf("response is not the error envelope: %v (%s)", err, body)
			}
			if dto.Error.Code != c.code {
				t.Fatalf("code = %q, want %q (%s)", dto.Error.Code, c.code, body)
			}
			if dto.Error.Message == "" {
				t.Fatalf("empty message (%s)", body)
			}
		})
	}
	// Draining: admitted after drain begins → 503 + draining code.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	status, body := doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: "a"})
	var dto ErrorDTO
	if status != http.StatusServiceUnavailable || json.Unmarshal(body, &dto) != nil || dto.Error.Code != CodeDraining {
		t.Fatalf("draining link = %d %s, want 503 + code draining", status, body)
	}
}

// TestHTTPDurableLifecycle drives the wire-level persistence loop:
// create (bulk-loads a snapshot), upsert (logs), snapshot endpoint
// (checkpoint), restart (new Service over the same data dir), identical
// answers plus honest persistence fields throughout.
func TestHTTPDurableLifecycle(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newDurableServer(t, dataDir)
	createAtlas(t, ts.URL)

	getInfo := func(base string) IndexInfo {
		t.Helper()
		code, body := doJSON(t, "GET", base+"/v1/indexes/atlas", nil)
		if code != http.StatusOK {
			t.Fatalf("get: %d %s", code, body)
		}
		var info IndexInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	info := getInfo(ts.URL)
	if !info.Durable || info.WALRecords != 0 || info.LastSnapshot == nil {
		t.Fatalf("created durable info = %+v, want durable, empty log, snapshot set (bulk load writes one)", info)
	}

	code, body := doJSON(t, "POST", ts.URL+"/v1/indexes/atlas/upsert", UpsertRequest{
		Tuples: []TupleDTO{{ID: 7, Key: "lago di garda sud", Attrs: []string{"fresh"}}},
	})
	if code != http.StatusOK {
		t.Fatalf("upsert: %d %s", code, body)
	}
	if info = getInfo(ts.URL); info.WALRecords != 1 {
		t.Fatalf("wal_records after upsert = %d, want 1", info.WALRecords)
	}

	// The checkpoint subsumes the log.
	code, body = doJSON(t, "POST", ts.URL+"/v1/indexes/atlas/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	if info = getInfo(ts.URL); info.WALRecords != 0 || info.LastSnapshot == nil {
		t.Fatalf("post-snapshot info = %+v", info)
	}
	// One more logged batch so the restart exercises snapshot + replay.
	doJSON(t, "POST", ts.URL+"/v1/indexes/atlas/upsert", UpsertRequest{
		Tuples: []TupleDTO{{ID: 8, Key: "passo dello stelvio", Attrs: []string{"high"}}},
	})

	link := func(base, key string) string {
		t.Helper()
		code, body := doJSON(t, "POST", base+"/v1/link", LinkRequestDTO{Index: "atlas", Key: key})
		if code != http.StatusOK {
			t.Fatalf("link %q: %d %s", key, code, body)
		}
		return string(body)
	}
	keys := []string{"via monte bianco nord 12", "via monte bianco nord 1", "lago di garda sud", "passo dello stelvio", "nothing here"}
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i] = link(ts.URL, k)
	}

	// "Restart": a brand-new service over the same data dir.
	s.Drain(context.Background())
	s.Close()
	ts.Close()
	s2, ts2 := newDurableServer(t, dataDir)
	defer func() { s2.Drain(context.Background()); s2.Close() }()

	info = getInfo(ts2.URL)
	if !info.Durable || info.WALRecords != 1 || info.Size != 5 {
		t.Fatalf("reloaded info = %+v, want durable, 1 replayed batch, 5 tuples", info)
	}
	for i, k := range keys {
		if after := link(ts2.URL, k); after != before[i] {
			t.Fatalf("link %q diverged after restart\n before %s\n after  %s", k, before[i], after)
		}
	}

	// Stats carry the persistence fields too.
	code, body = doJSON(t, "GET", ts2.URL+"/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Indexes) != 1 || !snap.Indexes[0].Durable || snap.Indexes[0].WALRecords != 1 {
		t.Fatalf("stats persistence fields = %+v", snap.Indexes)
	}

	// DELETE removes the stored data: a third boot starts empty.
	code, _ = doJSON(t, "DELETE", ts2.URL+"/v1/indexes/atlas", nil)
	if code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	s3 := New(Config{Workers: 2, DataDir: dataDir})
	defer s3.Close()
	names, err := s3.LoadStored()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("deleted index resurrected: %v", names)
	}
}

// TestServiceCreateIndexDurableConflicts: an orphaned index directory
// (on disk but not registered) blocks creation under the same name.
func TestServiceCreateIndexDurableConflicts(t *testing.T) {
	dataDir := t.TempDir()
	s := New(Config{Workers: 2, DataDir: dataDir})
	defer s.Close()
	mk := func(name string) error {
		_, err := s.CreateIndex(name, adaptivelink.IndexOptions{}, []adaptivelink.Tuple{{ID: 1, Key: "a key"}})
		return err
	}
	if err := mk("orphan"); err != nil {
		t.Fatal(err)
	}
	// Drop the registration but keep the files.
	s.mu.Lock()
	mi := s.indexes["orphan"]
	delete(s.indexes, "orphan")
	s.mu.Unlock()
	mi.ix.Close()
	err := mk("orphan")
	if !errors.Is(err, ErrExists) {
		t.Fatalf("create over an orphaned directory: %v, want ErrExists", err)
	}
	if !strings.Contains(err.Error(), "disk") {
		t.Fatalf("error should tell the operator the directory survives on disk: %v", err)
	}
}

// TestCreateConflictAdvice: a create refused by a directory the boot did
// not load says what frees the name. A foreign directory (no snapshot,
// no log) is never loaded, so only removing or renaming it helps; an
// index directory planted after boot is loaded by a restart.
func TestCreateConflictAdvice(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newDurableServer(t, dataDir)
	defer s.Close()
	if err := os.MkdirAll(filepath.Join(dataDir, "foreign"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, "foreign", "notes"), []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	planted, err := adaptivelink.BulkLoad(adaptivelink.FromTuples([]adaptivelink.Tuple{{ID: 1, Key: "a key"}}),
		adaptivelink.IndexOptions{Storage: adaptivelink.StorageOptions{Dir: filepath.Join(dataDir, "planted")}})
	if err != nil {
		t.Fatal(err)
	}
	planted.Close()
	for _, c := range []struct {
		name      string
		want, not string
	}{
		{"foreign", "removing or renaming it frees the name", "restart"},
		{"planted", "restart to reload it", "removing"},
	} {
		code, body := doJSON(t, "POST", ts.URL+"/v1/indexes", CreateIndexRequest{Name: c.name, Tuples: []TupleDTO{{ID: 0, Key: "k"}}})
		if code != http.StatusConflict || !strings.Contains(string(body), c.want) || strings.Contains(string(body), c.not) {
			t.Errorf("create %s = %d %s, want 409 saying %q and not %q", c.name, code, body, c.want, c.not)
		}
	}
}

// TestLoadStoredSelectivity: boot recovery loads exactly the stored
// indexes — plain files and foreign subdirectories are skipped, empty
// directories removed, and a corrupt index directory fails the boot loudly
// instead of serving a partial catalogue silently.
func TestLoadStoredSelectivity(t *testing.T) {
	dataDir := t.TempDir()
	s := New(Config{Workers: 1, DataDir: dataDir})
	if _, err := s.CreateIndex("keep", adaptivelink.IndexOptions{}, []adaptivelink.Tuple{{ID: 1, Key: "a key"}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if err := os.WriteFile(filepath.Join(dataDir, "junk.txt"), []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dataDir, "empty-but-named-ok"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dataDir, "bad name!"), 0o755); err != nil {
		t.Fatal(err)
	}

	s2 := New(Config{Workers: 1, DataDir: dataDir})
	defer s2.Close()
	names, err := s2.LoadStored()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "keep" {
		t.Fatalf("LoadStored = %v, want [keep]", names)
	}

	// A corrupt artifact stops recovery with a descriptive error.
	broken := filepath.Join(dataDir, "broken")
	if err := os.MkdirAll(broken, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(broken, "index.snap"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := New(Config{Workers: 1, DataDir: dataDir})
	defer s3.Close()
	if _, err := s3.LoadStored(); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("LoadStored over corrupt dir = %v, want error naming it", err)
	}
}

// TestLoadStoredUnreadableWAL: an index directory whose log cannot be
// read fails the boot, naming the directory, instead of being skipped
// as one that holds no index — which would drop its acknowledged writes
// from the daemon without a word.
func TestLoadStoredUnreadableWAL(t *testing.T) {
	dataDir := t.TempDir()
	lost := filepath.Join(dataDir, "lost")
	if err := os.MkdirAll(filepath.Join(lost, store.WALFile), 0o755); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, DataDir: dataDir})
	defer s.Close()
	if names, err := s.LoadStored(); err == nil || !strings.Contains(err.Error(), lost) {
		t.Fatalf("LoadStored over an unreadable log = %v, %v; want an error naming %s", names, err, lost)
	}
}

// TestLoadStoredRefusedWhenRouted: a router's indexes live on its
// nodes, so LoadStored on a routed service with a data dir fails
// instead of registering the directory's indexes as local ones the
// cluster can neither link nor delete.
func TestLoadStoredRefusedWhenRouted(t *testing.T) {
	dataDir := t.TempDir()
	s := New(Config{Workers: 1, DataDir: dataDir})
	if _, err := s.CreateIndex("stored", adaptivelink.IndexOptions{}, []adaptivelink.Tuple{{ID: 1, Key: "a key"}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	node := startStack(t, "node", Config{})
	cl, err := cluster.New(cluster.Config{Map: cluster.Map{Shards: 1, Groups: [][]string{{node.srv.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	router := New(Config{Workers: 1, DataDir: dataDir, Cluster: cl})
	defer router.Close()
	names, err := router.LoadStored()
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("LoadStored on a routed service = %v, %v; want ErrInvalid", names, err)
	}
	if got := router.ListIndexes(); len(got) != 0 {
		t.Errorf("router lists %d indexes after a refused load, want 0", len(got))
	}
}

// dataDirEntries lists the names in dir.
func dataDirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// createOver POSTs a small create of name and returns the status.
func createOver(t *testing.T, base, name string) int {
	t.Helper()
	code, _ := doJSON(t, "POST", base+"/v1/indexes", CreateIndexRequest{Name: name, Tuples: []TupleDTO{{ID: 1, Key: "lago di como est"}}})
	return code
}

// TestDeleteCrashAfterRename plants the two states a crash can leave
// once a DELETE's rename committed — a tombstone still holding the whole
// index, and one whose removal stopped halfway (the log without its
// snapshot) — and restarts: neither name loads, no tombstone survives
// the boot, and both names can be created again. A stale tombstone of a
// live name does not stop that name's DELETE either.
func TestDeleteCrashAfterRename(t *testing.T) {
	dataDir := t.TempDir()
	s := New(Config{Workers: 1, DataDir: dataDir})
	for _, name := range []string{"whole", "half"} {
		if _, err := s.CreateIndex(name, adaptivelink.IndexOptions{}, refTuples(testKeys...)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Upsert(name, refTuples("passo dello stelvio")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	for _, name := range []string{"whole", "half"} {
		if err := os.Rename(filepath.Join(dataDir, name), filepath.Join(dataDir, tombstonePrefix+name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dataDir, tombstonePrefix+"half", "index.snap")); err != nil {
		t.Fatal(err)
	}

	s2, ts := newDurableServer(t, dataDir)
	defer s2.Close()
	if got := s2.ListIndexes(); len(got) != 0 {
		t.Fatalf("deleted indexes loaded: %+v", got)
	}
	if got := dataDirEntries(t, dataDir); len(got) != 0 {
		t.Fatalf("data dir after boot = %v, want the tombstones gone", got)
	}
	for _, name := range []string{"whole", "half"} {
		if code := createOver(t, ts.URL, name); code != http.StatusCreated {
			t.Fatalf("create %s after the crashed delete = %d, want 201", name, code)
		}
	}

	stale := filepath.Join(dataDir, tombstonePrefix+"whole")
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stale, "upserts.wal"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, body := doJSON(t, "DELETE", ts.URL+"/v1/indexes/whole", nil); code != http.StatusNoContent {
		t.Fatalf("delete over a stale tombstone = %d %s", code, body)
	}
	if got := dataDirEntries(t, dataDir); len(got) != 1 || got[0] != "half" {
		t.Fatalf("data dir after the delete = %v, want [half]", got)
	}
}

// TestCreateCrashBeforeSnapshotRename: a create killed before its
// snapshot's rename leaves a directory with no snapshot and no log —
// empty, or holding only the snapshot's temporary file. The boot sweeps
// it, so the name can be created again; a directory holding anything
// else stays on disk and keeps refusing its name.
func TestCreateCrashBeforeSnapshotRename(t *testing.T) {
	dataDir := t.TempDir()
	for _, name := range []string{"atlas", "empty", "foreign"} {
		if err := os.MkdirAll(filepath.Join(dataDir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dataDir, "atlas", "index.snap.tmp1234567"), []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	notes := filepath.Join(dataDir, "foreign", "notes.txt")
	if err := os.WriteFile(notes, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newDurableServer(t, dataDir)
	defer s.Close()
	for _, name := range []string{"atlas", "empty"} {
		if code := createOver(t, ts.URL, name); code != http.StatusCreated {
			t.Fatalf("create %s over an interrupted create = %d, want 201", name, code)
		}
	}
	if code := createOver(t, ts.URL, "foreign"); code != http.StatusConflict {
		t.Fatalf("create over a foreign directory = %d, want 409", code)
	}
	if _, err := os.Stat(notes); err != nil {
		t.Fatalf("the boot touched a foreign directory: %v", err)
	}
}
