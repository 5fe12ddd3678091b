package service

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"adaptivelink/internal/cluster"
)

// The cluster differential harness: the router's contract is that a
// routed /v1/link answer is BYTE-IDENTICAL to a single process serving
// the same create/upsert stream — matches, session statistics and error
// envelopes alike. Every cluster shape (1, 2 and 3 node groups, with
// and without replicas) is driven with the same deterministic request
// script as a single-process reference, and every link and upsert
// response body is compared byte for byte.

// diffStack is one serving stack (a single process, or a router with
// its node fleet behind it) reachable over HTTP.
type diffStack struct {
	name string
	srv  *httptest.Server
}

func startStack(t *testing.T, name string, cfg Config) *diffStack {
	t.Helper()
	svc := New(cfg)
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	return &diffStack{name: name, srv: srv}
}

// startCluster boots one stock node daemon per replica, wires the map,
// and fronts them with a router stack.
func startCluster(t *testing.T, name string, shards int, groupSizes []int) *diffStack {
	t.Helper()
	groups := make([][]string, len(groupSizes))
	for g, n := range groupSizes {
		for r := 0; r < n; r++ {
			node := startStack(t, fmt.Sprintf("%s-node%d.%d", name, g, r), Config{})
			groups[g] = append(groups[g], node.srv.URL)
		}
	}
	cl, err := cluster.New(cluster.Config{Map: cluster.Map{Shards: shards, Groups: groups}})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return startStack(t, name, Config{Cluster: cl})
}

func (d *diffStack) do(t *testing.T, method, path, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, d.srv.URL+path, rd)
	if err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %s %s: %v", d.name, method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading %s %s: %v", d.name, method, path, err)
	}
	return resp.StatusCode, string(raw)
}

// diffStep is one scripted request; compare selects whether the
// response body must be byte-identical across stacks (link and upsert
// responses are; create responses carry timestamps and are not), and
// local that a router must answer it without contacting a node.
type diffStep struct {
	method, path, body string
	compare, local     bool
}

// diffScript builds the deterministic request stream: a create, then
// interleaved upserts (inserts and updates) and link batches under
// every strategy, with misses, typos and duplicate keys mixed in, a
// batch of alike keys written against key order, and a tail of
// malformed requests whose error envelopes must match too.
func diffScript(seed int64) []diffStep {
	rng := rand.New(rand.NewSource(seed))
	streets := []string{"via monte bianco", "corso lago maggiore", "piazza valle verde",
		"viale porta nuova", "strada colle alto", "largo ponte vecchio"}
	sides := []string{"nord", "sud", "est", "ovest"}
	key := func(i int) string {
		return fmt.Sprintf("%s %s %d", streets[i%len(streets)], sides[(i/2)%len(sides)], 1+i%40)
	}
	typo := func(s string) string {
		b := []byte(s)
		i := 1 + rng.Intn(len(b)-2)
		b[i], b[i-1] = b[i-1], b[i]
		return string(b)
	}
	tup := func(i int, k string) string {
		return fmt.Sprintf(`{"id":%d,"key":%q,"attrs":["city%d"]}`, i, k, i%7)
	}

	var initial []string
	for i := 0; i < 24; i++ {
		initial = append(initial, tup(i, key(i)))
	}
	steps := []diffStep{{
		method: "POST", path: "/v1/indexes",
		body: fmt.Sprintf(`{"name":"atlas","tuples":[%s]}`, strings.Join(initial, ",")),
	}}

	next := 24
	for round := 0; round < 5; round++ {
		// Maintenance: a few brand-new keys plus updates of resident ones
		// (same key, new payload), shuffled into one batch.
		var ups []string
		for j := 0; j < 4; j++ {
			ups = append(ups, tup(1000+next, key(next)))
			next++
		}
		for j := 0; j < 3; j++ {
			i := rng.Intn(next - 4)
			ups = append(ups, fmt.Sprintf(`{"id":%d,"key":%q,"attrs":["round%d"]}`, 2000+i, key(i), round))
		}
		steps = append(steps, diffStep{
			method: "POST", path: "/v1/indexes/atlas/upsert",
			body:    fmt.Sprintf(`{"tuples":[%s]}`, strings.Join(ups, ",")),
			compare: true,
		})

		// Probe batches: exact (hits, misses, duplicates), approximate
		// (typos that must union across signature groups), adaptive (the
		// control loop's trajectory must replay identically).
		var exactKeys, approxKeys, adaptKeys []string
		for j := 0; j < 8; j++ {
			k := key(rng.Intn(next + 6)) // some keys beyond the resident set: misses
			exactKeys = append(exactKeys, fmt.Sprintf("%q", k))
			if j%2 == 0 {
				exactKeys = append(exactKeys, fmt.Sprintf("%q", k)) // duplicate in-batch
			}
			approxKeys = append(approxKeys, fmt.Sprintf("%q", typo(key(rng.Intn(next)))))
			adaptKeys = append(adaptKeys, fmt.Sprintf("%q", typo(key(rng.Intn(next+3)))))
		}
		steps = append(steps,
			diffStep{method: "POST", path: "/v1/link",
				body:    fmt.Sprintf(`{"index":"atlas","keys":[%s],"strategy":"exact"}`, strings.Join(exactKeys, ",")),
				compare: true},
			diffStep{method: "POST", path: "/v1/link",
				body:    fmt.Sprintf(`{"index":"atlas","keys":[%s],"strategy":"approximate"}`, strings.Join(approxKeys, ",")),
				compare: true},
			diffStep{method: "POST", path: "/v1/link",
				body:    fmt.Sprintf(`{"index":"atlas","keys":[%s],"futility_k":2}`, strings.Join(adaptKeys, ",")),
				compare: true},
		)
	}

	// Keys written in descending key order, so near-alike that one probe
	// matches several: a key's matches are ordered by their content, the
	// same in one process and across groups, whatever order the keys
	// arrived in.
	var late []string
	for j := 9; j >= 0; j-- {
		late = append(late, tup(3000+j, fmt.Sprintf("borgo san marco vecchio interno %d", j)))
	}
	steps = append(steps,
		diffStep{method: "POST", path: "/v1/indexes/atlas/upsert",
			body: fmt.Sprintf(`{"tuples":[%s]}`, strings.Join(late, ",")), compare: true},
		diffStep{method: "POST", path: "/v1/link",
			body:    `{"index":"atlas","keys":["borgo san marco vecchio interno 5","borgo san marco vechio interno","borgo san marco vecchio interno"],"strategy":"approximate"}`,
			compare: true},
	)

	// Error envelopes are part of the byte-identity contract.
	steps = append(steps,
		diffStep{method: "POST", path: "/v1/link",
			body: `{"index":"ghost","keys":["via monte bianco nord 1"]}`, compare: true},
		diffStep{method: "POST", path: "/v1/link",
			body: `{"index":"atlas","keys":[]}`, compare: true},
		diffStep{method: "POST", path: "/v1/link",
			body: `{"index":"atlas","keys":["x"],"strategy":"psychic"}`, compare: true},
		diffStep{method: "POST", path: "/v1/link",
			body: `{"index":"atlas","key":"a","keys":["b"]}`, compare: true},
	)
	// Invalid creates: the router resolves and validates the options
	// before any node is contacted, and refuses them as a node would.
	for _, opt := range []string{`"theta":9`, `"q":-2`, `"measure":"psychic"`, `"profile":"klingon"`} {
		steps = append(steps, diffStep{method: "POST", path: "/v1/indexes",
			body:    fmt.Sprintf(`{"name":"bad",%s,"tuples":[%s]}`, opt, tup(0, key(0))),
			compare: true, local: true})
	}
	return steps
}

// nodeRequests sums a router's adaptivelink_cluster_node_requests_total
// over every node and outcome.
func (d *diffStack) nodeRequests(t *testing.T) int {
	t.Helper()
	_, body := d.do(t, "GET", "/metrics", "")
	n := 0
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "adaptivelink_cluster_node_requests_total{") {
			continue
		}
		v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("%s: metrics line %q: %v", d.name, line, err)
		}
		n += v
	}
	return n
}

// TestClusterDifferential drives 1-, 2- and 3-group clusters (the
// 2-group shape with two replicas per group) and a single-process
// reference with the same script and demands byte-identical compared
// responses.
func TestClusterDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster differential is not short")
	}
	const shards = 6
	ref := startStack(t, "reference", Config{})
	clusters := []*diffStack{
		startCluster(t, "cluster-1", shards, []int{1}),
		startCluster(t, "cluster-2r", shards, []int{2, 2}),
		startCluster(t, "cluster-3", shards, []int{1, 1, 1}),
	}

	for si, step := range diffScript(17) {
		wantCode, wantBody := ref.do(t, step.method, step.path, step.body)
		for _, c := range clusters {
			var before int
			if step.local {
				if before = c.nodeRequests(t); before == 0 {
					t.Fatalf("%s: no node requests counted before step %d", c.name, si)
				}
			}
			code, body := c.do(t, step.method, step.path, step.body)
			if step.local {
				if after := c.nodeRequests(t); after != before {
					t.Fatalf("step %d (%s %s) on %s: %d node requests, want none (the router must refuse it alone)",
						si, step.method, step.path, c.name, after-before)
				}
			}
			if code != wantCode {
				t.Fatalf("step %d (%s %s) on %s: status %d, reference %d\nbody: %s",
					si, step.method, step.path, c.name, code, wantCode, body)
			}
			if step.compare && body != wantBody {
				t.Fatalf("step %d (%s %s) on %s diverges from the single-process reference\ncluster:   %s\nreference: %s",
					si, step.method, step.path, c.name, body, wantBody)
			}
		}
	}
}

// TestClusterDifferentialNormalization puts the normalization profile
// on the routed index: the router owns the pipeline (nodes index
// verbatim), and the stored — normalised — keys in the answers must
// still match the single process byte for byte.
func TestClusterDifferentialNormalization(t *testing.T) {
	ref := startStack(t, "reference", Config{})
	cl := startCluster(t, "cluster", 4, []int{1, 2})

	steps := []diffStep{
		{method: "POST", path: "/v1/indexes",
			body: `{"name":"norm","profile":"latin","tuples":[{"id":1,"key":"Crème Brûlée Straße 7"},{"id":2,"key":"  VIA   ROMA  12 "},{"id":3,"key":"François-Müller-Allee 3"}]}`},
		{method: "POST", path: "/v1/indexes/norm/upsert",
			body:    `{"tuples":[{"id":4,"key":"creme brulee strasse 7","attrs":["dup-after-normalization"]},{"id":5,"key":"Ångström Väg 1"}]}`,
			compare: true},
		{method: "POST", path: "/v1/link",
			body:    `{"index":"norm","keys":["CRÈME BRÛLÉE STRASSE 7","via roma 12","francois muller allee 3","angstrom vag 1","unrelated key"],"strategy":"approximate"}`,
			compare: true},
		{method: "POST", path: "/v1/link",
			body:    `{"index":"norm","keys":["creme brulee strasse 7","Via Roma 12"],"strategy":"exact"}`,
			compare: true},
	}
	for si, step := range steps {
		wantCode, wantBody := ref.do(t, step.method, step.path, step.body)
		code, body := cl.do(t, step.method, step.path, step.body)
		if code != wantCode {
			t.Fatalf("step %d: status %d, reference %d\nbody: %s", si, code, wantCode, body)
		}
		if step.compare && body != wantBody {
			t.Fatalf("step %d diverges\ncluster:   %s\nreference: %s", si, body, wantBody)
		}
	}
}

// TestCreateIDsAreArrivalOrder pins the tuple-ID rule of the wire, the
// same single-process and routed: a create assigns IDs in arrival order
// and drops the tuples' wire ids, while an upsert keeps its ids.
func TestCreateIDsAreArrivalOrder(t *testing.T) {
	for _, st := range []*diffStack{
		startStack(t, "single", Config{}),
		startCluster(t, "routed", 4, []int{1, 1}),
	} {
		steps := []struct {
			method, path, body string
			code               int
			want               string // a substring of the answer
		}{
			{"POST", "/v1/indexes", `{"name":"ids","tuples":[{"id":5,"key":"via roma"},{"id":7,"key":"corso lago"}]}`, 201, ""},
			{"POST", "/v1/link", `{"index":"ids","key":"via roma","strategy":"exact"}`, 200, `"ref_id":0,"ref_key":"via roma"`},
			{"POST", "/v1/link", `{"index":"ids","key":"corso lago","strategy":"exact"}`, 200, `"ref_id":1,"ref_key":"corso lago"`},
			{"POST", "/v1/indexes/ids/upsert", `{"tuples":[{"id":42,"key":"piazza nuova"}]}`, 200, `"inserted":1`},
			{"POST", "/v1/link", `{"index":"ids","key":"piazza nuova","strategy":"exact"}`, 200, `"ref_id":42,"ref_key":"piazza nuova"`},
		}
		for i, s := range steps {
			code, body := st.do(t, s.method, s.path, s.body)
			if code != s.code || !strings.Contains(body, s.want) {
				t.Errorf("%s step %d (%s %s): %d %s, want %d with %s", st.name, i, s.method, s.path, code, body, s.code, s.want)
			}
		}
	}
}
