package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptivelink/internal/cluster"
)

// Partial-failure contract: a routed batch either completes against
// every node group it needs or fails whole with a machine-branchable
// envelope — node loss is "node_unavailable" (502), a spent budget is
// "deadline" (504), and a key never surfaces twice.

// clusterFixture is a router with direct access to its node servers.
type clusterFixture struct {
	router *diffStack
	nodes  [][]*httptest.Server
}

// newClusterFixture boots groupSizes-shaped stock nodes (wrapped by mw
// when non-nil) and a router over them.
func newClusterFixture(t *testing.T, shards int, groupSizes []int, mw func(g, r int, h http.Handler) http.Handler) *clusterFixture {
	t.Helper()
	f := &clusterFixture{nodes: make([][]*httptest.Server, len(groupSizes))}
	groups := make([][]string, len(groupSizes))
	for g, n := range groupSizes {
		for r := 0; r < n; r++ {
			svc := New(Config{})
			t.Cleanup(svc.Close)
			var h http.Handler = NewHandler(svc)
			if mw != nil {
				h = mw(g, r, h)
			}
			srv := httptest.NewServer(h)
			t.Cleanup(srv.Close)
			f.nodes[g] = append(f.nodes[g], srv)
			groups[g] = append(groups[g], srv.URL)
		}
	}
	cl, err := cluster.New(cluster.Config{Map: cluster.Map{Shards: shards, Groups: groups}})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	f.router = startStack(t, "router", Config{Cluster: cl})
	return f
}

func (f *clusterFixture) create(t *testing.T, nKeys int) {
	t.Helper()
	var tuples []string
	for i := 0; i < nKeys; i++ {
		tuples = append(tuples, fmt.Sprintf(`{"key":"borgo santa lucia %s %d"}`,
			[]string{"nord", "sud", "est", "ovest"}[i%4], i))
	}
	code, body := f.router.do(t, "POST", "/v1/indexes",
		fmt.Sprintf(`{"name":"atlas","tuples":[%s]}`, strings.Join(tuples, ",")))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
}

func envelope(t *testing.T, body string) (code, message string) {
	t.Helper()
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("not an envelope: %s", body)
	}
	return env.Error.Code, env.Error.Message
}

// A node group lost mid-run fails routed batches whole with the
// node_unavailable envelope — never a silent partial result — while
// batches that only need surviving groups keep answering.
func TestClusterNodeDownFailsBatchWhole(t *testing.T) {
	f := newClusterFixture(t, 4, []int{1, 1}, nil)
	f.create(t, 24)

	// Approximate batches ask every group; they work before...
	code, body := f.router.do(t, "POST", "/v1/link",
		`{"index":"atlas","keys":["borgo santa luca nord 0","borgo santa lucia est 14"],"strategy":"approximate"}`)
	if code != http.StatusOK {
		t.Fatalf("pre-failure link: %d %s", code, body)
	}

	f.nodes[1][0].Close() // group 1's only replica dies

	code, body = f.router.do(t, "POST", "/v1/link",
		`{"index":"atlas","keys":["borgo santa luca nord 0","borgo santa lucia est 14"],"strategy":"approximate"}`)
	if code != http.StatusBadGateway {
		t.Fatalf("post-failure link: %d %s (want 502)", code, body)
	}
	// The envelope names the failing group and its key-hash shard range,
	// so an operator reads WHICH slice of the keyspace is dark.
	if ec, msg := envelope(t, body); ec != CodeNodeUnavailable ||
		!strings.Contains(msg, "cluster node unavailable") ||
		!strings.Contains(msg, "group 1 (shards 2-4)") {
		t.Fatalf("post-failure envelope: code %q message %q", ec, msg)
	}

	// A routed write needs quorum on its key's home group: homed on the
	// dead group it fails whole, naming the group and its hash range...
	code, body = f.router.do(t, "POST", "/v1/indexes/atlas/upsert",
		`{"tuples":[{"key":"borgo santa lucia nord 901"}]}`)
	if code != http.StatusBadGateway {
		t.Fatalf("post-failure upsert: %d %s (want 502)", code, body)
	}
	if ec, msg := envelope(t, body); ec != CodeNodeUnavailable ||
		!strings.Contains(msg, "group 1 (shards 2-4)") ||
		!strings.Contains(msg, "quorum") {
		t.Fatalf("post-failure upsert envelope: code %q message %q", ec, msg)
	}
	// ...while a key homed on the surviving group is stored there and
	// nowhere else, so its write does not notice the loss.
	code, body = f.router.do(t, "POST", "/v1/indexes/atlas/upsert",
		`{"tuples":[{"key":"borgo santa lucia nord 900"}]}`)
	if code != http.StatusOK {
		t.Fatalf("upsert homed on the surviving group: %d %s (want 200)", code, body)
	}
}

// A replica dying is absorbed: reads fail over to the surviving replica
// of the group, requests keep answering 200, and /v1/cluster reports
// the dead replica unhealthy.
func TestClusterReplicaFailover(t *testing.T) {
	f := newClusterFixture(t, 4, []int{2, 2}, nil)
	f.create(t, 24)

	f.nodes[0][0].Close() // group 0 keeps a live replica

	for i := 0; i < 6; i++ { // past any round-robin phase
		code, body := f.router.do(t, "POST", "/v1/link",
			`{"index":"atlas","keys":["borgo santa lucia nord 0","borgo santa luca sud 5"],"strategy":"approximate"}`)
		if code != http.StatusOK {
			t.Fatalf("failover link %d: %d %s", i, code, body)
		}
	}

	code, body := f.router.do(t, "GET", "/v1/cluster", "")
	if code != http.StatusOK {
		t.Fatalf("/v1/cluster: %d %s", code, body)
	}
	var info ClusterInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Role != "router" || len(info.Groups) != 2 {
		t.Fatalf("cluster info: %s", body)
	}
	if r := info.Groups[0].Replicas[0]; r.Healthy {
		t.Fatalf("dead replica %s reported healthy", r.Addr)
	}
	if r := info.Groups[0].Replicas[1]; !r.Healthy {
		t.Fatalf("live replica %s reported unhealthy", r.Addr)
	}
}

// A budget spent during the fan-out surfaces as the standard deadline
// envelope (504), byte-compatible with a single process timing out.
func TestClusterDeadlineDuringFanOut(t *testing.T) {
	f := newClusterFixture(t, 2, []int{1, 1}, func(g, r int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/v1/link" {
				time.Sleep(300 * time.Millisecond)
			}
			h.ServeHTTP(w, req)
		})
	})
	f.create(t, 16)

	// Three in a row: as many failures as open a circuit breaker.
	for i := 0; i < 3; i++ {
		code, body := f.router.do(t, "POST", "/v1/link",
			`{"index":"atlas","keys":["borgo santa lucia nord 0"],"timeout_ms":80}`)
		if code != http.StatusGatewayTimeout {
			t.Fatalf("deadline link: %d %s (want 504)", code, body)
		}
		ec, msg := envelope(t, body)
		if ec != CodeDeadline {
			t.Fatalf("envelope code %q, want %q", ec, CodeDeadline)
		}
		if want := `link "atlas": context deadline exceeded`; msg != want {
			t.Fatalf("deadline message %q, want %q (single-process byte-identity)", msg, want)
		}
	}

	// The request ran out of its own budget against a slow but healthy
	// replica: that is no breaker strike. A write to the same home group
	// goes straight through instead of being deferred behind an open
	// breaker, and nothing is queued.
	code, body := f.router.do(t, "POST", "/v1/indexes/atlas/upsert",
		`{"tuples":[{"key":"borgo santa lucia nord 0","attrs":["after the timeouts"]}]}`)
	if code != http.StatusOK {
		t.Fatalf("upsert after three spent budgets: %d %s (want 200)", code, body)
	}
	code, body = f.router.do(t, "GET", "/v1/cluster", "")
	var info ClusterInfo
	if err := json.Unmarshal([]byte(body), &info); code != http.StatusOK || err != nil {
		t.Fatalf("/v1/cluster: %d %s (%v)", code, body, err)
	}
	for _, g := range info.Groups {
		for _, r := range g.Replicas {
			if r.Breaker != "closed" || r.HintsPending != 0 {
				t.Fatalf("replica %s after three spent budgets: breaker %q, %d hints pending", r.Addr, r.Breaker, r.HintsPending)
			}
		}
	}
	if _, m := f.router.do(t, "GET", "/metrics", ""); !strings.Contains(m, `adaptivelink_cluster_breaker_transitions_total{state="open"} 0`) {
		t.Fatal("a breaker opened on request-budget expiries")
	}
}

// A key surfaces once even when a second group holds a copy of it: a
// write behind the router's back (or a copy left by the signature-
// replicating placement) either lands on the key's home group, where it
// replaces the one copy, or on another group, whose answer for a key it
// is not home to is dropped at the merge.
func TestClusterReplicaDedupAcrossVersions(t *testing.T) {
	f := newClusterFixture(t, 4, []int{1, 1}, nil)
	f.create(t, 8)

	// Plant a key through the router (it lands on its home group), then
	// write a different payload to group 0's node directly, bypassing
	// the router — off the home group, that is a second, divergent copy.
	code, body := f.router.do(t, "POST", "/v1/indexes/atlas/upsert",
		`{"tuples":[{"id":77,"key":"canale grande ribera 9","attrs":["v1"]}]}`)
	if code != http.StatusOK {
		t.Fatalf("routed upsert: %d %s", code, body)
	}
	divergent := 0
	for g := range f.nodes {
		node := f.nodes[g][0]
		resp, err := http.Post(node.URL+"/v1/indexes/atlas/upsert", "application/json",
			strings.NewReader(`{"tuples":[{"id":78,"key":"canale grande ribera 9","attrs":["v2-direct"]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		divergent++
		break // only the first group diverges
	}
	if divergent == 0 {
		t.Fatal("no node to diverge")
	}

	for i := 0; i < 4; i++ { // stable across round-robin phases
		code, body = f.router.do(t, "POST", "/v1/link",
			`{"index":"atlas","keys":["canale grande ribera 9"],"strategy":"approximate"}`)
		if code != http.StatusOK {
			t.Fatalf("link: %d %s", code, body)
		}
		var resp struct {
			Results []struct {
				Matches []struct {
					RefKey string   `json:"ref_key"`
					Attrs  []string `json:"ref_attrs"`
				} `json:"matches"`
			} `json:"results"`
		}
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, m := range resp.Results[0].Matches {
			if m.RefKey == "canale grande ribera 9" {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("round %d: key surfaced %d times, want exactly 1 (only the home group answers for a key)\n%s", i, n, body)
		}
	}
}

// nodeHolds reports whether a node answers for the index, asking it
// directly (not through the router).
func nodeHolds(t *testing.T, node *httptest.Server, index string) bool {
	t.Helper()
	resp, err := http.Get(node.URL + "/v1/indexes/" + index)
	if err != nil {
		t.Fatalf("asking node %s: %v", node.URL, err)
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// A routed create that one node group refuses answers node_unavailable
// and is rolled back on the groups that acknowledged it: no node is
// left holding the index, so the same create succeeds once the group is
// back, and answers like the single-process reference.
func TestClusterCreateDuringOutageRollsBack(t *testing.T) {
	f := newChaosFixture(t, 4, []int{1, 1}, nil)
	var initial []string
	for i := 0; i < 12; i++ {
		initial = append(initial, fmt.Sprintf(`{"key":%q}`, chaosKey(i)))
	}
	create := fmt.Sprintf(`{"name":"atlas","tuples":[%s]}`, strings.Join(initial, ","))

	down := f.kill(1, 0) // group 1 refuses connections
	if code, body := f.router.do(t, "POST", "/v1/indexes", create); code != http.StatusBadGateway {
		t.Fatalf("create during the outage: %d %s (want 502)", code, body)
	}
	for g := range f.nodes {
		for r, node := range f.nodes[g] {
			if nodeHolds(t, node, "atlas") {
				t.Fatalf("node %d.%d holds the index of a create that failed", g, r)
			}
		}
	}
	if code, body := f.router.do(t, "GET", "/v1/indexes/atlas", ""); code != http.StatusNotFound {
		t.Fatalf("router lists the failed create: %d %s", code, body)
	}

	down.Off()
	f.both(t, "POST", "/v1/indexes", create, false)
	f.linkBoth(t, chaosKey(0), chaosKey(7), "borgo santa luca nord 4")
}

// A routed create rolls back only what it created. A node that already
// holds the name refuses the create (409), so the create fails; the
// replicas that acknowledged it lose the index again, and the node that
// held it keeps its index and its contents.
func TestClusterCreateKeepsNodeHeldIndex(t *testing.T) {
	f := newChaosFixture(t, 4, []int{1, 2}, nil)
	held := f.nodes[1][0]
	resp, err := http.Post(held.URL+"/v1/indexes", "application/json",
		strings.NewReader(`{"name":"atlas","tuples":[{"key":"canale grande ribera 9"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create on node 1.0: %d", resp.StatusCode)
	}
	before := f.nodeDigest(t, 1, 0, "atlas")

	create := fmt.Sprintf(`{"name":"atlas","tuples":[{"key":%q},{"key":%q}]}`, chaosKey(0), chaosKey(1))
	if code, body := f.router.do(t, "POST", "/v1/indexes", create); code != http.StatusBadGateway {
		t.Fatalf("create over a node-held name: %d %s (want 502)", code, body)
	}
	if after := f.nodeDigest(t, 1, 0, "atlas"); after != before {
		t.Fatalf("node 1.0's index changed: digest %s, was %s", after, before)
	}
	for _, n := range [][2]int{{0, 0}, {1, 1}} {
		if nodeHolds(t, f.nodes[n[0]][n[1]], "atlas") {
			t.Fatalf("node %d.%d holds the index of a create that failed", n[0], n[1])
		}
	}
	if code, body := f.router.do(t, "GET", "/v1/indexes/atlas", ""); code != http.StatusNotFound {
		t.Fatalf("router lists the failed create: %d %s", code, body)
	}
}
