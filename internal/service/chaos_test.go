package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptivelink/internal/cluster"
	"adaptivelink/internal/fault"
	"adaptivelink/internal/shardmap"
)

// The chaos harness: a router over stock nodes with a deterministic
// fault-injecting transport between them. A replica is "killed" by a
// transport rule (every request to it fails), revived by disabling the
// rule — no process management, no timing dependence — and the contract
// under test is the ISSUE's acceptance bar: with a write quorum of 1
// and a replica down, every client request keeps answering 2xx with
// responses byte-identical to a single-process reference; after
// revival the replica converges (hint replay or full resync) until its
// content digest matches its group's.

type chaosFixture struct {
	router *diffStack
	ref    *diffStack // single-process reference fed the same script
	nodes  [][]*httptest.Server
	cl     *cluster.Client
	ft     *fault.Transport
}

func newChaosFixture(t *testing.T, shards int, groupSizes []int, tweak func(*cluster.Config)) *chaosFixture {
	t.Helper()
	f := &chaosFixture{
		nodes: make([][]*httptest.Server, len(groupSizes)),
		ft:    fault.NewTransport(nil),
	}
	groups := make([][]string, len(groupSizes))
	for g, n := range groupSizes {
		for r := 0; r < n; r++ {
			svc := New(Config{})
			t.Cleanup(svc.Close)
			srv := httptest.NewServer(NewHandler(svc))
			t.Cleanup(srv.Close)
			f.nodes[g] = append(f.nodes[g], srv)
			groups[g] = append(groups[g], srv.URL)
		}
	}
	ccfg := cluster.Config{
		Map:          cluster.Map{Shards: shards, Groups: groups},
		WriteQuorum:  1,
		WriteTimeout: 5 * time.Second,
		HTTPClient:   &http.Client{Transport: f.ft},
	}
	if tweak != nil {
		tweak(&ccfg)
	}
	cl, err := cluster.New(ccfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	f.cl = cl
	f.router = startStack(t, "router", Config{Cluster: cl})
	f.ref = startStack(t, "reference", Config{})
	return f
}

// kill makes every request to the node fail at the transport; the
// returned rule's Off revives it.
func (f *chaosFixture) kill(g, r int) *fault.Rule {
	return f.ft.Add(&fault.Rule{
		Node:   strings.TrimPrefix(f.nodes[g][r].URL, "http://"),
		Action: fault.Fail,
	})
}

// both drives the same request through router and reference, requiring
// matching status (and matching bodies when compare is set).
func (f *chaosFixture) both(t *testing.T, method, path, body string, compare bool) (int, string) {
	t.Helper()
	wantCode, wantBody := f.ref.do(t, method, path, body)
	code, got := f.router.do(t, method, path, body)
	if code != wantCode {
		t.Fatalf("%s %s: router %d, reference %d\nrouter body: %s", method, path, code, wantCode, got)
	}
	if compare && got != wantBody {
		t.Fatalf("%s %s diverges from the single-process reference\nrouter:    %s\nreference: %s", method, path, got, wantBody)
	}
	return code, got
}

func (f *chaosFixture) clusterInfo(t *testing.T) ClusterInfo {
	t.Helper()
	code, body := f.router.do(t, "GET", "/v1/cluster", "")
	if code != http.StatusOK {
		t.Fatalf("/v1/cluster: %d %s", code, body)
	}
	var info ClusterInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	return info
}

// nodeDigest reads one node's content digest directly (not through the
// router).
func (f *chaosFixture) nodeDigest(t *testing.T, g, r int, index string) string {
	t.Helper()
	resp, err := http.Get(f.nodes[g][r].URL + "/v1/indexes/" + index + "/digest")
	if err != nil {
		t.Fatalf("digest node %d.%d: %v", g, r, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("status:%d", resp.StatusCode)
	}
	var d struct {
		Combined string `json:"combined"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d.Combined
}

func chaosKey(i int) string {
	return fmt.Sprintf("borgo santa lucia %s %d", []string{"nord", "sud", "est", "ovest"}[i%4], i)
}

func (f *chaosFixture) upsertBoth(t *testing.T, i int) {
	t.Helper()
	body := fmt.Sprintf(`{"tuples":[{"id":%d,"key":%q,"attrs":["w%d"]}]}`, i, chaosKey(i), i)
	f.both(t, "POST", "/v1/indexes/atlas/upsert", body, true)
}

func (f *chaosFixture) linkBoth(t *testing.T, keys ...string) {
	t.Helper()
	qs := make([]string, len(keys))
	for i, k := range keys {
		qs[i] = fmt.Sprintf("%q", k)
	}
	body := fmt.Sprintf(`{"index":"atlas","keys":[%s],"strategy":"approximate"}`, strings.Join(qs, ","))
	f.both(t, "POST", "/v1/link", body, true)
}

// TestChaosReplicaOutageServesAndHealsViaHints is the headline chaos
// proof: a replica dies under sustained write+probe load, every request
// keeps answering 2xx byte-identical to the single-process reference,
// and after revival the hint drainer replays the missed writes until
// the group's replicas report identical content digests.
func TestChaosReplicaOutageServesAndHealsViaHints(t *testing.T) {
	f := newChaosFixture(t, 4, []int{2, 2}, nil)

	var initial []string
	for i := 0; i < 12; i++ {
		initial = append(initial, fmt.Sprintf(`{"id":%d,"key":%q}`, i, chaosKey(i)))
	}
	f.both(t, "POST", "/v1/indexes",
		fmt.Sprintf(`{"name":"atlas","tuples":[%s]}`, strings.Join(initial, ",")), false)

	// Steady state: both replicas of group 0 agree.
	if a, b := f.nodeDigest(t, 0, 0, "atlas"), f.nodeDigest(t, 0, 1, "atlas"); a != b {
		t.Fatalf("pre-fault divergence: %s vs %s", a, b)
	}

	rule := f.kill(0, 0)

	// Sustained load with the replica dark: writes meet quorum on the
	// survivor, probes fail over — all 2xx, all byte-identical.
	next := 12
	for round := 0; round < 6; round++ {
		f.upsertBoth(t, next)
		next++
		f.linkBoth(t, chaosKey(round), chaosKey(next-1), "borgo santa luciaa nord 1")
	}

	// The router knows the replica is behind.
	info := f.clusterInfo(t)
	lagging := info.Groups[0].Replicas[0]
	if lagging.Healthy {
		t.Fatalf("dead replica reported healthy: %+v", lagging)
	}
	if lagging.HintsPending == 0 {
		t.Fatalf("no hints pending for the dead replica: %+v", lagging)
	}

	// Revive: the drainer replays the queued writes in order.
	rule.Off()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info = f.clusterInfo(t)
		r := info.Groups[0].Replicas[0]
		if r.HintsPending == 0 && len(r.NeedsResync) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hints never drained: %+v", r)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Digest convergence across the group — the revived replica holds
	// byte-identical content to the survivor.
	waitConverged := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			a, b := f.nodeDigest(t, 0, 0, "atlas"), f.nodeDigest(t, 0, 1, "atlas")
			if a == b && !strings.HasPrefix(a, "status:") {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("group 0 digests never converged: %s vs %s", a, b)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitConverged()

	// And the healed cluster still answers byte-identical to the
	// reference, including for the keys written during the outage.
	f.linkBoth(t, chaosKey(12), chaosKey(15), chaosKey(2))
	// One anti-entropy pass confirms convergence (and repairs nothing).
	f.cl.Repair(context.Background())
	info = f.clusterInfo(t)
	d0 := info.Groups[0].Replicas[0].Digests["atlas"]
	d1 := info.Groups[0].Replicas[1].Digests["atlas"]
	if d0 == "" || d0 != d1 {
		t.Fatalf("post-repair digest report: %q vs %q", d0, d1)
	}
}

// waitDrained polls /v1/cluster until the replica's convergence queue is
// empty: no write left to replay, no re-seed left to run.
func (f *chaosFixture) waitDrained(t *testing.T, g, r int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep := f.clusterInfo(t).Groups[g].Replicas[r]
		if rep.HintsPending == 0 && len(rep.NeedsResync) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d.%d never converged: %+v", g, r, rep)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosHintOverflowFullResync drives a replica past the hint
// horizon: the overflow is surfaced in /v1/cluster as needs_resync (not
// silently dropped), and once the replica answers again its drainer
// repairs it with a full snapshot stream until digests converge — with
// the background repair loop off (RepairInterval 0) and no Repair call.
func TestChaosHintOverflowFullResync(t *testing.T) {
	f := newChaosFixture(t, 4, []int{2, 2}, func(c *cluster.Config) {
		c.HintCapacity = 3
	})

	var initial []string
	for i := 0; i < 8; i++ {
		initial = append(initial, fmt.Sprintf(`{"id":%d,"key":%q}`, i, chaosKey(i)))
	}
	f.both(t, "POST", "/v1/indexes",
		fmt.Sprintf(`{"name":"atlas","tuples":[%s]}`, strings.Join(initial, ",")), false)

	rule := f.kill(0, 0)

	// Enough writes to overflow a 3-hint queue for the dead replica: only
	// the writes homed on its group queue a hint for it.
	m := f.cl.Map()
	next := 8
	for homed := 0; homed <= 3; next++ {
		f.upsertBoth(t, next)
		if m.GroupOf(shardmap.ShardOf(chaosKey(next), m.Shards)) == 0 {
			homed++
		}
	}
	if r := f.clusterInfo(t).Groups[0].Replicas[0]; len(r.NeedsResync) != 1 || r.NeedsResync[0] != "atlas" {
		t.Fatalf("overflow not surfaced as needs_resync: %+v", r)
	}

	// Revive: the queued re-seed runs and retires on its own.
	rule.Off()
	f.waitDrained(t, 0, 0)
	if a, b := f.nodeDigest(t, 0, 0, "atlas"), f.nodeDigest(t, 0, 1, "atlas"); a != b {
		t.Fatalf("post-resync divergence: %s vs %s", a, b)
	}

	// The repaired cluster answers byte-identical to the reference.
	f.linkBoth(t, chaosKey(9), chaosKey(13), chaosKey(3))
}

// TestChaosWritesDuringReseedConverge is the write-load convergence
// proof: a replica past the hint horizon is revived while one writer
// keeps upserting and three anti-entropy passes run. Every write
// acknowledged while the replica is being re-seeded queues behind the
// re-seed and replays after it, so once the writer stops and the queue
// is empty — with no further Repair — the group's digests are equal and
// a routed link is byte-identical to the single-process reference.
func TestChaosWritesDuringReseedConverge(t *testing.T) {
	f := newChaosFixture(t, 2, []int{2}, func(c *cluster.Config) {
		c.HintCapacity = 3
	})
	var initial []string
	for i := 0; i < 8; i++ {
		initial = append(initial, fmt.Sprintf(`{"id":%d,"key":%q}`, i, chaosKey(i)))
	}
	f.both(t, "POST", "/v1/indexes",
		fmt.Sprintf(`{"name":"atlas","tuples":[%s]}`, strings.Join(initial, ",")), false)

	rule := f.kill(0, 0)
	next := 8
	for ; next < 14; next++ { // 6 writes against a 3-write queue: past the horizon
		f.upsertBoth(t, next)
	}
	if r := f.clusterInfo(t).Groups[0].Replicas[0]; len(r.NeedsResync) != 1 {
		t.Fatalf("overflow not surfaced as needs_resync: %+v", r)
	}
	// Every resync of the revived replica dawdles between export and
	// apply, so writes are certain to be acknowledged inside that window.
	f.ft.Add(&fault.Rule{
		Node: strings.TrimPrefix(f.nodes[0][0].URL, "http://"), Path: "/resync",
		Action: fault.Delay, Dur: 20 * time.Millisecond,
	})
	rule.Off()

	// Three anti-entropy passes run beside the writer, which keeps going
	// until they are done and the first re-seed has shipped, then some
	// more: the writes overlap the export, the resync and the replay
	// behind it, and the last of them have no Repair after them.
	passes := make(chan struct{})
	go func() {
		defer close(passes)
		for i := 0; i < 3; i++ {
			f.cl.Repair(context.Background())
			time.Sleep(10 * time.Millisecond)
		}
	}()
	const unshipped = `adaptivelink_cluster_repairs_total{kind="full_resync"} 0`
	for tail := 20; tail > 0; next++ {
		if next > 5000 {
			t.Fatal("the re-seed never ran under write load")
		}
		f.upsertBoth(t, next)
		select {
		case <-passes:
			if _, m := f.router.do(t, "GET", "/metrics", ""); !strings.Contains(m, unshipped) {
				tail--
			}
		default:
		}
	}

	f.waitDrained(t, 0, 0)
	f.waitDrained(t, 0, 1)
	if a, b := f.nodeDigest(t, 0, 0, "atlas"), f.nodeDigest(t, 0, 1, "atlas"); a != b || strings.HasPrefix(a, "status:") {
		t.Fatalf("queues empty but the replicas differ: %s vs %s (an acknowledged write vanished)", a, b)
	}
	// Round-robin puts these on both replicas; each must answer like the
	// single process that saw every write.
	for i := 0; i < 4; i++ {
		f.linkBoth(t, chaosKey(9), chaosKey(next-1), chaosKey(next-20), "borgo santa luciaa nord 1")
	}
}

// TestChaosBlackHolePartition covers the uglier failure mode: a replica
// that swallows packets instead of refusing them. Writes still meet
// quorum within the write timeout and probes fail over within the
// request budget.
func TestChaosBlackHolePartition(t *testing.T) {
	f := newChaosFixture(t, 2, []int{2}, func(c *cluster.Config) {
		c.WriteTimeout = 500 * time.Millisecond
	})
	var initial []string
	for i := 0; i < 6; i++ {
		initial = append(initial, fmt.Sprintf(`{"id":%d,"key":%q}`, i, chaosKey(i)))
	}
	f.both(t, "POST", "/v1/indexes",
		fmt.Sprintf(`{"name":"atlas","tuples":[%s]}`, strings.Join(initial, ",")), false)

	rule := f.ft.Add(&fault.Rule{
		Node:   strings.TrimPrefix(f.nodes[0][0].URL, "http://"),
		Action: fault.BlackHole,
	})

	// A write against the partitioned replica blocks until the write
	// timeout, then succeeds on quorum; later writes defer to hints.
	f.upsertBoth(t, 6)
	f.upsertBoth(t, 7)
	code, body := f.router.do(t, "POST", "/v1/link",
		fmt.Sprintf(`{"index":"atlas","keys":[%q],"strategy":"approximate","timeout_ms":2000}`, chaosKey(6)))
	if code != http.StatusOK {
		t.Fatalf("link under partition: %d %s", code, body)
	}

	rule.Off()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := f.clusterInfo(t)
		r := info.Groups[0].Replicas[0]
		if r.HintsPending == 0 && len(r.NeedsResync) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("partition hints never drained: %+v", r)
		}
		time.Sleep(20 * time.Millisecond)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		a, b := f.nodeDigest(t, 0, 0, "atlas"), f.nodeDigest(t, 0, 1, "atlas")
		if a == b {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-partition digests never converged: %s vs %s", a, b)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosDeleteBelowQuorumKeepsIndex: a routed DELETE that cannot
// reach a whole group fails with node_unavailable and leaves the index
// registered on the router — still listed, still deletable — so the
// retry after the partition heals succeeds and the name is free again.
func TestChaosDeleteBelowQuorumKeepsIndex(t *testing.T) {
	f := newChaosFixture(t, 2, []int{1, 1}, func(c *cluster.Config) {
		c.WriteTimeout = 300 * time.Millisecond
	})
	create := fmt.Sprintf(`{"name":"atlas","tuples":[{"id":0,"key":%q},{"id":1,"key":%q}]}`, chaosKey(0), chaosKey(1))
	if code, body := f.router.do(t, "POST", "/v1/indexes", create); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	rule := f.ft.Add(&fault.Rule{
		Node:   strings.TrimPrefix(f.nodes[1][0].URL, "http://"),
		Action: fault.BlackHole,
	})
	code, body := f.router.do(t, "DELETE", "/v1/indexes/atlas", "")
	if ec, _ := envelope(t, body); code != http.StatusBadGateway || ec != "node_unavailable" {
		t.Fatalf("DELETE with a group black-holed: %d %s, want 502 node_unavailable", code, body)
	}
	if code, body := f.router.do(t, "GET", "/v1/indexes/atlas", ""); code != http.StatusOK {
		t.Fatalf("GET after the failed DELETE: %d %s, want the index still registered", code, body)
	}
	rule.Off()
	if code, body := f.router.do(t, "DELETE", "/v1/indexes/atlas", ""); code != http.StatusNoContent {
		t.Fatalf("DELETE after heal: %d %s", code, body)
	}
	if code, body := f.router.do(t, "POST", "/v1/indexes", create); code != http.StatusCreated {
		t.Fatalf("re-create after delete: %d %s", code, body)
	}
}
