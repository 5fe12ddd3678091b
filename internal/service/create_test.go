package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adaptivelink"
	"adaptivelink/internal/cluster"
	"adaptivelink/internal/shardmap"
	"adaptivelink/internal/store"
	"adaptivelink/internal/wire"
)

// createRequest is a create request of n generated tuples in the
// repository benchmark's shape: 4 shards, q 3, θ 0.75, profile
// "standard", two attributes a tuple.
func createRequest(tb testing.TB, name string, n int) CreateIndexRequest {
	tb.Helper()
	data, err := adaptivelink.GenerateTestData(42, n, 1, adaptivelink.PatternUniform, 0, false)
	if err != nil {
		tb.Fatal(err)
	}
	req := CreateIndexRequest{Name: name, Q: 3, Theta: 0.75, Shards: 4, Profile: "standard",
		Tuples: make([]TupleDTO, len(data.Parent))}
	for i, t := range data.Parent {
		req.Tuples[i] = TupleDTO{ID: t.ID, Key: t.Key, Attrs: t.Attrs}
	}
	return req
}

func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// serveBody sends one request through h.
func serveBody(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// keysHomedApart returns two keys of the form prefix+number whose home
// shards among shards differ.
func keysHomedApart(prefix string, shards int) (a, b string) {
	a = prefix + "0"
	for i := 1; ; i++ {
		if b = fmt.Sprintf("%s%d", prefix, i); shardmap.ShardOf(b, shards) != shardmap.ShardOf(a, shards) {
			return a, b
		}
	}
}

// TestCreateParity creates an index from each body through the handler
// — where a canonical body's tuples decode on their own goroutine while
// the bulk load homes them — and in process, from what encoding/json
// reads in the body, with BulkLoad(FromTuples). The two must write
// byte-identical snapshot files and answer every /v1/link alike, ref
// IDs included. A body broken in its last tuple is answered with
// encoding/json's error, and leaves no directory behind.
func TestCreateParity(t *testing.T) {
	gotDir, refDir := t.TempDir(), t.TempDir()
	got, ref := New(Config{DataDir: gotDir}), New(Config{DataDir: refDir})
	t.Cleanup(got.Close)
	t.Cleanup(ref.Close)
	gotH, refH := NewHandler(got), NewHandler(ref)

	one, other := keysHomedApart("via roma ", 4)
	// Keys the standard profile leaves as they are, homed apart.
	upOne, upOther := keysHomedApart("VIA ROMA ", 4)
	distinct := CreateIndexRequest{Name: "distinct", Shards: 3, Tuples: []TupleDTO{
		{Key: "lago maggiore"}, {Key: "lago di como", Attrs: []string{"a", "b"}}, {Key: "monte rosa", Attrs: []string{}},
	}}
	dupOne := CreateIndexRequest{Name: "dupone", Shards: 4, Tuples: []TupleDTO{
		{Key: one, Attrs: []string{"first"}}, {Key: other}, {Key: one, Attrs: []string{"second"}}, {Key: one, Attrs: []string{"last"}},
	}}
	dupAcross := CreateIndexRequest{Name: "dupacross", Shards: 4, Profile: "standard", Tuples: []TupleDTO{
		{Key: upOne, Attrs: []string{"a1"}}, {Key: upOther, Attrs: []string{"b1"}}, {Key: "Piazza  Nuova"},
		{Key: upOne, Attrs: []string{"a2"}}, {Key: upOther, Attrs: []string{"b2"}}, {Key: "PIAZZA NUOVA", Attrs: []string{"folded"}},
	}}
	escaped := `{"name":"escaped","shards":2,"tuples":[{"key":"\"quoted\" \\ back\/slash","attrs":["été","\t"]},` +
		`{"key":"Forlì città","attrs":["日本"]},{"key":"東京"}]}`
	indented, err := json.MarshalIndent(CreateIndexRequest{Name: "indented", Shards: 2, Tuples: distinct.Tuples}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		body    []byte
		streams bool // whether wire.StreamCreate takes the body
	}{
		{"one", marshal(t, createRequest(t, "one", 1)), true},
		{"six hundred", marshal(t, createRequest(t, "sixhundred", 600)), true},
		{"twenty thousand", marshal(t, createRequest(t, "twentyk", 20000)), true},
		{"no duplicate keys", marshal(t, distinct), true},
		{"duplicate keys in one shard", marshal(t, dupOne), true},
		{"duplicate keys across shards", marshal(t, dupAcross), true},
		{"tuples before profile", []byte(`{"name":"early","tuples":[{"key":"Via Roma"},{"key":"via  roma","attrs":["x"]}],"profile":"standard","shards":2}`), false},
		{"escaped and non-ASCII keys", []byte(escaped), true},
		// JSON whitespace is inside the canonical shape, for Decode's
		// scanner as for StreamCreate: an indented body streams, and one
		// outside the shape takes the synchronous path, spaced or not.
		{"whitespace", indented, true},
		{"whitespace, tuples before shards", []byte("{\n  \"name\": \"spacedearly\",\n  \"tuples\": [\n    {\"key\": \"Via Roma\"},\n    {\"key\": \"via  roma\", \"attrs\": [\"x\"]}\n  ],\n  \"shards\": 2\n}\n"), false},
		// Both abandon their streamed build at the last tuple; encoding/json
		// reads the first and refuses the second.
		{"case-folded member in the last tuple", []byte(`{"name":"folded","tuples":[{"key":"a"},{"KEY":"b","Attrs":["c"]}]}`), true},
		{"broken last tuple", []byte(`{"name":"broken","shards":2,"tuples":[{"key":"a"},{"key":"b"},{"key":"c"]}`), true},
	}
	for _, c := range cases {
		if _, ok := wire.StreamCreate(c.body); ok != c.streams {
			t.Errorf("%s: StreamCreate took the body: %v, want %v", c.name, ok, c.streams)
		}
		code, resp := serveBody(gotH, "POST", "/v1/indexes", c.body)
		var req CreateIndexRequest
		if err := wire.DecodeReader(bytes.NewReader(c.body), &req); err != nil {
			want := marshal(t, ErrorDTO{Error: ErrorBody{Code: CodeInvalid, Message: fmt.Sprintf("invalid request body: %v", err)}})
			compareOutcome(t, c.name, code, resp, http.StatusBadRequest, want)
			if entries, err := os.ReadDir(gotDir); err != nil || len(entries) != len(got.ListIndexes()) {
				t.Fatalf("%s: the data dir holds %v (%v) for %d indexes", c.name, entries, err, len(got.ListIndexes()))
			}
			continue
		}
		if code != http.StatusCreated {
			t.Fatalf("%s: create answered %d %s", c.name, code, resp)
		}
		opts, err := indexOptions(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.CreateIndex(req.Name, opts, publicTuples(req.Tuples)); err != nil {
			t.Fatalf("%s: in-process create: %v", c.name, err)
		}
		snap := func(dir string) []byte {
			raw, err := os.ReadFile(filepath.Join(dir, req.Name, store.SnapshotFile))
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		if g, r := snap(gotDir), snap(refDir); !bytes.Equal(g, r) {
			t.Fatalf("%s: the handler wrote a %d-byte snapshot, BulkLoad(FromTuples) %d bytes, and they differ", c.name, len(g), len(r))
		}
		// Every key of the body (at most 300 of them) and a typo of each.
		var keys []string
		for i := 0; i < len(req.Tuples); i += max(1, len(req.Tuples)/300) {
			k := req.Tuples[i].Key
			keys = append(keys, k, k+"x")
		}
		for _, strategy := range []string{"exact", "adaptive"} {
			link := marshal(t, LinkRequestDTO{Index: req.Name, Keys: keys, Strategy: strategy})
			code, resp := serveBody(gotH, "POST", "/v1/link", link)
			wantCode, wantResp := serveBody(refH, "POST", "/v1/link", link)
			compareOutcome(t, c.name+" "+strategy+" link", code, resp, wantCode, wantResp)
		}
	}
}

// TestCreateStreamedOnRouter: a router takes a canonical create body
// as a node does, its tuples decoding on their own goroutine into the
// rows it then routes, and the routed index answers every link as a
// single process built from the same body does.
func TestCreateStreamedOnRouter(t *testing.T) {
	var groups [][]string
	for g := 0; g < 2; g++ {
		node := startStack(t, fmt.Sprintf("node%d", g), Config{})
		groups = append(groups, []string{node.srv.URL})
	}
	cl, err := cluster.New(cluster.Config{Map: cluster.Map{Shards: 4, Groups: groups}})
	if err != nil {
		t.Fatal(err)
	}
	router, ref := New(Config{Cluster: cl}), New(Config{})
	t.Cleanup(router.Close)
	t.Cleanup(ref.Close)

	req := createRequest(t, "streamed", 600) // 4 shards, as the cluster has
	body := marshal(t, req)
	info, handled, err := router.createStreamed(body)
	if !handled || err != nil {
		t.Fatalf("router createStreamed: handled %v, err %v", handled, err)
	}
	if info.Size != len(req.Tuples) || info.Shards != 4 {
		t.Fatalf("router created %d tuples in %d shards, want %d in 4", info.Size, info.Shards, len(req.Tuples))
	}
	if code, resp := serveBody(NewHandler(ref), "POST", "/v1/indexes", body); code != http.StatusCreated {
		t.Fatalf("reference create: %d %s", code, resp)
	}
	var keys []string
	for i := 0; i < len(req.Tuples); i += 7 {
		keys = append(keys, req.Tuples[i].Key, req.Tuples[i].Key+"x")
	}
	for _, strategy := range []string{"exact", "adaptive"} {
		link := marshal(t, LinkRequestDTO{Index: req.Name, Keys: keys, Strategy: strategy})
		code, resp := serveBody(NewHandler(router), "POST", "/v1/link", link)
		wantCode, wantResp := serveBody(NewHandler(ref), "POST", "/v1/link", link)
		if code != wantCode || !bytes.Equal(resp, wantResp) {
			t.Fatalf("%s link: router %d %s\nreference %d %s", strategy, code, resp, wantCode, wantResp)
		}
	}
}

// TestClusterCreateBrokenLastTuple: a create body broken in its last
// tuple, sent through a router, is answered with encoding/json's error,
// and no node is asked to create anything: the router reads every row
// before it contacts a node.
func TestClusterCreateBrokenLastTuple(t *testing.T) {
	var creates atomic.Int64
	f := newClusterFixture(t, 4, []int{1, 1}, func(g, r int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/indexes" {
				creates.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	body := []byte(`{"name":"broken","tuples":[{"key":"a"},{"key":"b"},{"key":"c"]}`)
	if _, ok := wire.StreamCreate(body); !ok {
		t.Fatal("StreamCreate refused the body; the test needs it streamed")
	}
	var req CreateIndexRequest
	decodeErr := wire.DecodeReader(bytes.NewReader(body), &req)
	if decodeErr == nil {
		t.Fatal("encoding/json accepted the broken body")
	}
	want := marshal(t, ErrorDTO{Error: ErrorBody{Code: CodeInvalid, Message: fmt.Sprintf("invalid request body: %v", decodeErr)}})
	code, resp := f.router.do(t, "POST", "/v1/indexes", string(body))
	compareOutcome(t, "broken body through the router", code, []byte(resp), http.StatusBadRequest, want)
	if n := creates.Load(); n != 0 {
		t.Fatalf("the router sent %d creates to its nodes", n)
	}
	for g := range f.nodes {
		for r, node := range f.nodes[g] {
			if nodeHolds(t, node, "broken") {
				t.Fatalf("node %d.%d holds the index of a refused body", g, r)
			}
		}
	}
	if code, resp := f.router.do(t, "GET", "/v1/indexes/broken", ""); code != http.StatusNotFound {
		t.Fatalf("router lists the refused create: %d %s", code, resp)
	}
}

// createBytesBudget bounds what a durable create of 20k generated tuples
// allocates per tuple through the handler: the body (which the rows'
// strings alias), its attribute arena, the rows, their home shards and
// member refs, the shard stores the bytes are copied into, the exact
// tables and the normalised keys, 281 measured, plus a margin. With a
// string block beside the body it was 325, and 312 when the shards
// adopted the rows. Decoding into wire tuples, copying them into a
// batch, deduplicating it into another and gathering the store to
// write the snapshot cost 630.
const createBytesBudget = 310

func TestAllocCreateBytesPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	const n = 20000
	body := marshal(t, createRequest(t, "alloc", n))
	s := New(Config{DataDir: t.TempDir()})
	defer s.Close()
	h := NewHandler(s)
	perTuple := math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code, resp := serveBody(h, "POST", "/v1/indexes", body)
		runtime.ReadMemStats(&after)
		if code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, resp)
		}
		perTuple = min(perTuple, float64(after.TotalAlloc-before.TotalAlloc)/n)
		if code, resp := serveBody(h, "DELETE", "/v1/indexes/alloc", nil); code != http.StatusNoContent {
			t.Fatalf("delete: %d %s", code, resp)
		}
	}
	t.Logf("a durable create of %d tuples allocated %.0f bytes per tuple", n, perTuple)
	if perTuple > createBytesBudget {
		t.Errorf("a durable create of %d tuples allocated %.0f bytes per tuple, budget %d", n, perTuple, createBytesBudget)
	}
}

// createLiveBytesBudget bounds the live heap a durable create of 20k
// generated tuples through the handler leaves per tuple: the index's
// shard stores — the key and attribute bytes it owns, its entries and
// attribute headers, its member refs and exact tables — and nothing of
// the request. 112 measured, plus a margin. When the shards kept tuple
// headers and string-keyed exact maps, and the tuples aliased the
// decoded body's string block, it was 175.
const createLiveBytesBudget = 115

func TestAllocCreateLiveBytesPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	const n = 20000
	s := New(Config{DataDir: t.TempDir()})
	defer s.Close()
	h := NewHandler(s)
	// The body is the caller's and outlives the create, so its own bytes
	// are in both readings and cancel out.
	body := marshal(t, createRequest(t, "live", n))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if code, resp := serveBody(h, "POST", "/v1/indexes", body); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, resp)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(body)
	perTuple := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("a durable create of %d tuples left %.0f live bytes per tuple", n, perTuple)
	if perTuple > createLiveBytesBudget {
		t.Errorf("a durable create of %d tuples left %.0f live bytes per tuple, budget %d", n, perTuple, createLiveBytesBudget)
	}
}

// routedCreateLiveBytesBudget bounds the live heap a routed create of
// 20k generated tuples leaves on the router per tuple. The router keeps
// nothing per key (a key's matches are ordered by their content) and
// nothing of the request: 2–3 measured, the index's registration and
// the connections' buffers, plus a margin. It was 75 while the router
// kept a key sequence for merge order, and 90 when the sequence's keys
// and the create's name shared the decoded body's string block.
const routedCreateLiveBytesBudget = 8

func TestAllocRoutedCreateLiveBytesPerTuple(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	const n = 20000
	// Nodes that take every write and keep nothing, so only the router's
	// heap moves.
	var groups [][]string
	for range 2 {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			if r.URL.Path == "/v1/indexes" {
				w.WriteHeader(http.StatusCreated)
			}
			w.Write([]byte(`{}`))
		}))
		defer srv.Close()
		groups = append(groups, []string{srv.URL})
	}
	cl, err := cluster.New(cluster.Config{Map: cluster.Map{Shards: 8, Groups: groups}})
	if err != nil {
		t.Fatal(err)
	}
	router := New(Config{Cluster: cl})
	defer router.Close()
	h := NewHandler(router)
	body := marshal(t, createRequest(t, "routed", n))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if code, resp := serveBody(h, "POST", "/v1/indexes", body); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, resp)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(body)
	perTuple := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("a routed create of %d tuples left %.0f live bytes per tuple on the router", n, perTuple)
	if perTuple > routedCreateLiveBytesBudget {
		t.Errorf("a routed create of %d tuples left %.0f live bytes per tuple on the router, budget %d", n, perTuple, routedCreateLiveBytesBudget)
	}
}

// TestRoutedCreateRepeatedKeyParity: a routed create whose body repeats
// keys once they are normalised — a key in another case, one spaced
// out, one sent again verbatim — answers every /v1/link byte for byte
// as the single-process create of the same body does: a repeated key
// keeps its first ref and its last payload. Each node loads its group's
// rows as a bulk load into the empty index the router created; the
// replicas of a group digest alike, and as a node does that takes the
// same create and upsert bodies after an approximate probe has built
// its shards, so that the upsert runs the per-tuple path.
func TestRoutedCreateRepeatedKeyParity(t *testing.T) {
	var mu sync.Mutex
	bodies := make(map[int][][]byte) // group -> the create and upsert bodies its first replica took
	f := newClusterFixture(t, 8, []int{2, 2}, func(g, r int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if r == 0 && req.Method == http.MethodPost && strings.HasPrefix(req.URL.Path, "/v1/indexes") {
				raw, err := io.ReadAll(req.Body)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				bodies[g] = append(bodies[g], raw)
				mu.Unlock()
				req.Body = io.NopCloser(bytes.NewReader(raw))
			}
			h.ServeHTTP(w, req)
		})
	})
	single := startStack(t, "single", Config{})

	req := createRequest(t, "repeated", 400)
	first, spaced, again := req.Tuples[0], req.Tuples[7], req.Tuples[3]
	req.Tuples = append(req.Tuples,
		TupleDTO{Key: strings.ToLower(first.Key), Attrs: []string{"lowered"}},
		TupleDTO{Key: "  " + strings.ReplaceAll(spaced.Key, " ", "   "), Attrs: []string{"spaced"}},
		TupleDTO{Key: again.Key, Attrs: []string{"again"}},
		TupleDTO{Key: first.Key, Attrs: []string{"last"}},
	)
	body := string(marshal(t, req))
	for _, st := range []*diffStack{f.router, single} {
		if code, resp := st.do(t, "POST", "/v1/indexes", body); code != http.StatusCreated {
			t.Fatalf("%s create: %d %s", st.name, code, resp)
		}
	}
	var keys []string
	for i := 0; i < len(req.Tuples); i += 3 {
		keys = append(keys, req.Tuples[i].Key, req.Tuples[i].Key+"x")
	}
	keys = append(keys, first.Key, spaced.Key, again.Key)
	for _, strategy := range []string{"exact", "adaptive"} {
		link := string(marshal(t, LinkRequestDTO{Index: req.Name, Keys: keys, Strategy: strategy}))
		code, resp := f.router.do(t, "POST", "/v1/link", link)
		wantCode, wantResp := single.do(t, "POST", "/v1/link", link)
		if code != wantCode || resp != wantResp {
			t.Fatalf("%s link: router %d %s\nsingle process %d %s", strategy, code, resp, wantCode, wantResp)
		}
	}
	if code, resp := f.router.do(t, "GET", "/v1/indexes/repeated", ""); code != http.StatusOK || !strings.Contains(resp, fmt.Sprintf(`"size":%d`, len(req.Tuples)-4)) {
		t.Fatalf("router index: %d %s, want %d keys", code, resp, len(req.Tuples)-4)
	}

	digest := func(url string) adaptivelink.IndexDigest {
		t.Helper()
		resp, err := http.Get(url + "/v1/indexes/repeated/digest")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var d adaptivelink.IndexDigest
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("digest of %s: %d %v", url, resp.StatusCode, err)
		}
		return d
	}
	for g, reps := range f.nodes {
		if len(bodies[g]) != 2 {
			t.Fatalf("group %d took %d index writes, want a create and one upsert", g, len(bodies[g]))
		}
		ref := startStack(t, fmt.Sprintf("reference%d", g), Config{})
		if code, resp := ref.do(t, "POST", "/v1/indexes", string(bodies[g][0])); code != http.StatusCreated {
			t.Fatalf("reference create: %d %s", code, resp)
		}
		probe := string(marshal(t, LinkRequestDTO{Index: req.Name, Keys: []string{first.Key}, Strategy: "approximate"}))
		if code, resp := ref.do(t, "POST", "/v1/link", probe); code != http.StatusOK {
			t.Fatalf("reference probe: %d %s", code, resp)
		}
		if code, resp := ref.do(t, "POST", "/v1/indexes/repeated/upsert", string(bodies[g][1])); code != http.StatusOK {
			t.Fatalf("reference upsert: %d %s", code, resp)
		}
		want := digest(ref.srv.URL)
		for r, node := range reps {
			if got := digest(node.URL); got.Combined != want.Combined || got.Tuples != want.Tuples {
				t.Fatalf("group %d replica %d digests %+v, the per-tuple reference %+v", g, r, got, want)
			}
		}
	}
}
