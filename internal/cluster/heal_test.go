package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivelink"
	"adaptivelink/internal/fault"
	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/wire"
)

// healNode is a canned node for the self-healing tests: it answers the
// anti-entropy surface (digest/export/resync) from a settable digest
// and counts hits per path suffix.
type healNode struct {
	srv *httptest.Server
	// onExport, when set before the first request, runs at the start of
	// every export (outside the node's lock) — a gate for mid-flight tests.
	onExport func()

	mu       sync.Mutex
	combined string
	tuples   int
	hits     map[string]int
	// sinceResync counts the upserts received since the last resync.
	sinceResync int
}

func newHealNode(t *testing.T, combined string, tuples int) *healNode {
	t.Helper()
	n := &healNode{combined: combined, tuples: tuples, hits: make(map[string]int)}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.onExport != nil && strings.HasSuffix(r.URL.Path, "/export") {
			n.onExport()
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		switch {
		case strings.HasSuffix(r.URL.Path, "/digest"):
			n.hits["digest"]++
			json.NewEncoder(w).Encode(adaptivelink.IndexDigest{Combined: n.combined, Tuples: n.tuples})
		case strings.HasSuffix(r.URL.Path, "/export"):
			n.hits["export"]++
			w.Header().Set("Content-Type", "application/octet-stream")
			fmt.Fprintf(w, "SNAP:%s:%d", n.combined, n.tuples)
		case strings.HasSuffix(r.URL.Path, "/resync"):
			n.hits["resync"]++
			n.sinceResync = 0
			raw, _ := io.ReadAll(r.Body)
			parts := strings.Split(string(raw), ":")
			if len(parts) != 3 || parts[0] != "SNAP" {
				w.WriteHeader(http.StatusBadRequest)
				w.Write([]byte(`{"error":{"code":"invalid","message":"bad snapshot"}}`))
				return
			}
			n.combined = parts[1]
			fmt.Sscanf(parts[2], "%d", &n.tuples)
			w.Write([]byte(`{"name":"ix"}`))
		case strings.HasSuffix(r.URL.Path, "/upsert"):
			n.hits["upsert"]++
			n.sinceResync++
			w.Write([]byte(`{"inserted":1,"updated":0,"size":1}`))
		default:
			n.hits["other"]++
			w.Write([]byte(`{}`))
		}
	}))
	t.Cleanup(n.srv.Close)
	return n
}

func (n *healNode) hit(path string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hits[path]
}

func (n *healNode) digest() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.combined
}

func host(srv *httptest.Server) string { return strings.TrimPrefix(srv.URL, "http://") }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A write that meets quorum succeeds immediately; the unreachable
// replica's copy is queued as a hint and replayed, in order, once the
// replica answers again.
func TestQuorumWriteHintsAndDrains(t *testing.T) {
	r0 := newHealNode(t, "d0", 0)
	r1 := newHealNode(t, "d0", 0)
	ft := fault.NewTransport(nil)
	down := ft.Add(&fault.Rule{Node: host(r0.srv), Path: "upsert", Action: fault.Fail})

	c, err := New(Config{
		Map:          Map{Shards: 1, Groups: [][]string{{r0.srv.URL, r1.srv.URL}}},
		WriteQuorum:  1,
		HTTPClient:   &http.Client{Transport: ft},
		WriteTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := registerOnly(c, "ix"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Bind(context.Background(), "ix")
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := v.Upsert([]relation.Tuple{{Key: "alpha"}}); err != nil {
		t.Fatalf("quorum-1 write with one replica down: %v", err)
	}
	if got := r1.hit("upsert"); got != 1 {
		t.Fatalf("surviving replica upserts = %d, want 1", got)
	}
	// Follow-up writes queue behind the pending hint (order preserved),
	// without attempting the broken replica.
	if _, _, err := v.Upsert([]relation.Tuple{{Key: "beta"}}); err != nil {
		t.Fatalf("second write: %v", err)
	}

	// The replica revives: the drainer replays both hints in order.
	down.Off()
	waitFor(t, 3*time.Second, "hints to drain", func() bool {
		rs := c.reps[0][0]
		rs.mu.Lock()
		defer rs.mu.Unlock()
		return len(rs.hints) == 0
	})
	if got := r0.hit("upsert"); got != 2 {
		t.Fatalf("revived replica received %d replayed upserts, want 2", got)
	}

	// /v1/cluster-level state settles clean.
	h := c.Health(context.Background())
	rep := h[0].Replicas[0]
	if rep.HintsPending != 0 || len(rep.NeedsResync) != 0 {
		t.Fatalf("post-drain replica state: %+v", rep)
	}
}

// Below quorum the batch fails whole, names the group and shard range,
// and queues no hints — the caller retries the whole batch.
func TestBelowQuorumFailsWholeWithoutHints(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	r1 := newHealNode(t, "d0", 0)
	c := testClient(t, [][]string{{dead.URL, r1.srv.URL}}) // default quorum: majority of 2 = 2
	t.Cleanup(c.Close)
	v, err := c.Bind(context.Background(), "ix")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = v.Upsert([]relation.Tuple{{Key: "alpha"}})
	if !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("below-quorum write = %v, want ErrNodeUnavailable", err)
	}
	for _, want := range []string{"group 0 (shards", "quorum 2", "1 of 2 replicas"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	rs := c.reps[0][0]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.hints) != 0 {
		t.Fatalf("failed batch queued entries: %+v", rs.hints)
	}
}

// A write queue at capacity collapses into one re-seed entry instead of
// silently dropping writes, and the same drainer that replays writes
// then repairs the replica from a healthy one's snapshot stream — with
// the background repair loop off and no Repair call.
func TestHintOverflowEscalatesToResync(t *testing.T) {
	stale := newHealNode(t, "dOLD", 1)
	ref := newHealNode(t, "dNEW", 4)
	ft := fault.NewTransport(nil)
	down := ft.Add(&fault.Rule{Node: host(stale.srv), Action: fault.Fail})

	c, err := New(Config{
		Map:          Map{Shards: 1, Groups: [][]string{{stale.srv.URL, ref.srv.URL}}},
		WriteQuorum:  1,
		HintCapacity: 2,
		HTTPClient:   &http.Client{Transport: ft},
		WriteTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := registerOnly(c, "ix"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Bind(context.Background(), "ix")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := v.Upsert([]relation.Tuple{{Key: fmt.Sprintf("k%d", i)}}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	// Past the hint horizon: the third write collapsed the queue into one
	// re-seed entry and the fourth queued behind it, replayable again.
	rep := c.Health(context.Background())[0].Replicas[0]
	if len(rep.NeedsResync) != 1 || rep.NeedsResync[0] != "ix" || rep.HintsPending != 2 {
		t.Fatalf("health after overflow = %+v, want needs_resync [ix] and 2 entries pending", rep)
	}

	// The replica revives; the drainer streams the reference snapshot
	// into it, then replays the write queued behind the re-seed.
	down.Off()
	waitFor(t, 5*time.Second, "the queue to drain", func() bool {
		return c.Health(context.Background())[0].Replicas[0].HintsPending == 0
	})
	if got := stale.hit("resync"); got != 1 {
		t.Fatalf("stale replica received %d resyncs, want 1", got)
	}
	// The drainer may have picked up a queued write before the overflow
	// collapsed it and send it once the replica revives; it lands before
	// the resync, which overwrites it. Only the write queued behind the
	// re-seed may follow it.
	stale.mu.Lock()
	after := stale.sinceResync
	stale.mu.Unlock()
	if after != 1 {
		t.Fatalf("stale replica received %d replayed upserts after its resync, want the 1 queued behind the re-seed", after)
	}
	if got := stale.digest(); got != "dNEW" {
		t.Fatalf("post-resync digest %q, want dNEW", got)
	}
	if rep := c.Health(context.Background())[0].Replicas[0]; len(rep.NeedsResync) != 0 {
		t.Fatalf("needs_resync survived the re-seed: %+v", rep)
	}

	// An anti-entropy pass finds convergence and repairs nothing further.
	c.Repair(context.Background())
	rep = c.Health(context.Background())[0].Replicas[0]
	if rep.Digests["ix"] != "dNEW" || rep.HintsPending != 0 {
		t.Fatalf("post-repair health = %+v, want digest dNEW and an empty queue", rep)
	}
	if got := stale.hit("resync"); got != 1 {
		t.Fatalf("converged replica resynced again (%d)", got)
	}
}

// Anti-entropy elects the reference copy by modal digest with ties
// broken toward more tuples, and leaves unreachable replicas alone. It
// only detects: the re-seed it queues is run by the replica's drainer.
func TestRepairElectsReferenceByVoteThenTuples(t *testing.T) {
	a := newHealNode(t, "dX", 2)
	b := newHealNode(t, "dY", 5) // diverged, more tuples: wins the tie
	c2, err := New(Config{Map: Map{Shards: 1, Groups: [][]string{{a.srv.URL, b.srv.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	if err := registerOnly(c2, "ix"); err != nil {
		t.Fatal(err)
	}
	c2.Repair(context.Background())
	waitFor(t, 5*time.Second, "the queued re-seed to retire", func() bool {
		return !c2.reps[0][0].behind(c2)
	})
	if a.digest() != "dY" {
		t.Fatalf("minority replica digest %q, want adopted dY", a.digest())
	}
	if got := b.hit("resync"); got != 0 {
		t.Fatalf("reference replica was resynced (%d times)", got)
	}
	if c2.reps[0][1].behind(c2) {
		t.Fatal("the elected reference had an entry queued")
	}
}

// park queues entries on a replica by hand with a drainer "already
// running", so the test owns the queue until it starts the real one.
func park(rs *replicaState, hs ...hint) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, h := range hs {
		rs.lastHintID++
		h.id = rs.lastHintID
		rs.hints = append(rs.hints, h)
	}
	rs.draining = true
}

func queued(rs *replicaState) []hint {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]hint(nil), rs.hints...)
}

// Drainer invariant 1: a re-seed whose export began before a write was
// collapsed into it does not retire on that run — it runs again, so the
// second export carries the write.
func TestReseedRunsAgainWhenAWriteCollapsesIntoItMidFlight(t *testing.T) {
	stale := newHealNode(t, "dOLD", 1)
	ref := newHealNode(t, "dNEW", 4)
	exporting := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	ref.onExport = func() { once.Do(func() { close(exporting); <-release }) }
	c, err := New(Config{
		Map:          Map{Shards: 1, Groups: [][]string{{stale.srv.URL, ref.srv.URL}}},
		HintCapacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	registerOnly(c, "ix")

	c.enqueue(0, 0, hint{index: "ix", reseed: true, from: -1})
	<-exporting
	// While the export is in flight: one write queues behind the re-seed,
	// the next overflows the 1-write queue and both collapse into it.
	w := hint{index: "ix", method: http.MethodPost, path: "/v1/indexes/ix/upsert", ok: []int{http.StatusOK}}
	c.enqueue(0, 0, w)
	c.enqueue(0, 0, w)
	if q := queued(c.reps[0][0]); len(q) != 1 || !q[0].reseed || !q[0].again {
		t.Fatalf("queue after the mid-flight collapse = %+v, want the one re-seed flagged to run again", q)
	}
	close(release)
	waitFor(t, 5*time.Second, "the re-seed to retire", func() bool { return !c.reps[0][0].behind(c) })
	if got := stale.hit("resync"); got != 2 {
		t.Fatalf("replica was re-seeded %d times, want 2 (the first export predates the collapsed writes)", got)
	}
	if got := stale.hit("upsert"); got != 0 {
		t.Fatalf("%d collapsed writes were replayed anyway", got)
	}
}

// Drainer invariant 2: with no clean, answering peer a re-seed backs off
// and stays queued — it is not dropped — and runs once a peer is clean.
func TestReseedWaitsForACleanPeer(t *testing.T) {
	stale := newHealNode(t, "dOLD", 1)
	peer := newHealNode(t, "dNEW", 4)
	c, err := New(Config{Map: Map{Shards: 1, Groups: [][]string{{stale.srv.URL, peer.srv.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	registerOnly(c, "ix")

	// The only peer is itself behind (an entry parked on it).
	park(c.reps[0][1], hint{index: "other"})
	c.enqueue(0, 0, hint{index: "ix", reseed: true, from: -1})
	time.Sleep(4 * hintBackoffMin)
	if q := queued(c.reps[0][0]); len(q) != 1 || !q[0].reseed {
		t.Fatalf("re-seed without a clean peer left the queue: %+v", q)
	}
	if got := peer.hit("export") + stale.hit("resync"); got != 0 {
		t.Fatalf("re-seed ran against a peer known to be behind (%d requests)", got)
	}
	if nr := c.Health(context.Background())[0].Replicas[0].NeedsResync; len(nr) != 1 || nr[0] != "ix" {
		t.Fatalf("waiting re-seed not reported: needs_resync = %v", nr)
	}

	// The peer converges: the waiting re-seed runs.
	rs := c.reps[0][1]
	rs.mu.Lock()
	rs.hints, rs.draining = nil, false
	rs.mu.Unlock()
	waitFor(t, 5*time.Second, "the re-seed to run", func() bool { return !c.reps[0][0].behind(c) })
	if stale.digest() != "dNEW" {
		t.Fatalf("replica digest %q after the re-seed, want dNEW", stale.digest())
	}
}

// Drainer invariant 3: a re-seed for an index the router no longer has
// registered retires as converged, and the entries behind it proceed.
func TestReseedForAnUnregisteredIndexRetires(t *testing.T) {
	stale := newHealNode(t, "dOLD", 1)
	peer := newHealNode(t, "dNEW", 4)
	c, err := New(Config{Map: Map{Shards: 1, Groups: [][]string{{stale.srv.URL, peer.srv.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	c.enqueue(0, 0, hint{index: "gone", reseed: true, from: 1})
	c.enqueue(0, 0, hint{index: "gone", method: http.MethodDelete, path: "/v1/indexes/gone", ok: []int{http.StatusOK}})
	waitFor(t, 5*time.Second, "the queue to drain", func() bool { return !c.reps[0][0].behind(c) })
	if got := peer.hit("export") + stale.hit("resync"); got != 0 {
		t.Fatalf("re-seed of an unregistered index still shipped a snapshot (%d requests)", got)
	}
	if got := stale.hit("other"); got != 1 {
		t.Fatalf("the write queued behind the retired re-seed was replayed %d times, want 1", got)
	}
}

// A replayed write the replica semantically refuses collapses that
// index's queued writes into a re-seed; other indexes' writes stay.
func TestRefusedReplayCollapsesIntoReseed(t *testing.T) {
	stale := newHealNode(t, "dOLD", 1)
	peer := newHealNode(t, "dNEW", 4)
	c, err := New(Config{Map: Map{Shards: 1, Groups: [][]string{{stale.srv.URL, peer.srv.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	registerOnly(c, "ix")

	refused := hint{index: "ix", method: http.MethodPost, path: "/v1/indexes/ix/upsert", ok: []int{http.StatusTeapot}}
	other := hint{index: "other", method: http.MethodPost, path: "/v1/indexes/other/upsert", ok: []int{http.StatusOK}}
	rs := c.reps[0][0]
	park(rs, refused, other, refused)
	c.wg.Add(1)
	go c.drain(rs)
	waitFor(t, 5*time.Second, "the queue to drain", func() bool { return !rs.behind(c) })
	if got := stale.hit("upsert"); got != 2 {
		t.Fatalf("replica saw %d upserts, want 2 (the refused head and the other index's write; the second refused write was collapsed)", got)
	}
	if got := stale.hit("resync"); got != 1 || stale.digest() != "dNEW" {
		t.Fatalf("refusal did not re-seed the index: %d resyncs, digest %q", got, stale.digest())
	}
}

// The circuit breaker walks closed -> open on consecutive transport
// failures, half-open after the cooldown, and back to closed on the
// first success; open breakers defer writes straight to the hint queue.
func TestBreakerLifecycle(t *testing.T) {
	n := newHealNode(t, "d0", 0)
	c := testClient(t, [][]string{{n.srv.URL}})
	t.Cleanup(c.Close)
	rs := c.reps[0][0]

	if rs.behind(c) {
		t.Fatal("fresh replica defers writes")
	}
	for i := 0; i < breakerFailThreshold; i++ {
		rs.noteFailure(c)
	}
	rs.mu.Lock()
	st := rs.effectiveBreaker(c)
	rs.mu.Unlock()
	if st != breakerOpen {
		t.Fatalf("breaker after %d failures = %v, want open", breakerFailThreshold, st)
	}
	if !rs.behind(c) {
		t.Fatal("open breaker did not defer writes")
	}

	time.Sleep(breakerCooldown + 50*time.Millisecond)
	rs.mu.Lock()
	st = rs.effectiveBreaker(c)
	rs.mu.Unlock()
	if st != breakerHalfOpen {
		t.Fatalf("breaker after cooldown = %v, want half_open", st)
	}
	if rs.behind(c) {
		t.Fatal("half-open breaker should allow the trial write")
	}
	rs.noteSuccess(c)
	rs.mu.Lock()
	st = rs.effectiveBreaker(c)
	rs.mu.Unlock()
	if st != breakerClosed {
		t.Fatalf("breaker after trial success = %v, want closed", st)
	}

	// A half-open trial that fails re-opens immediately.
	for i := 0; i < breakerFailThreshold; i++ {
		rs.noteFailure(c)
	}
	time.Sleep(breakerCooldown + 50*time.Millisecond)
	rs.mu.Lock()
	rs.effectiveBreaker(c) // promote to half-open
	rs.mu.Unlock()
	rs.noteFailure(c)
	rs.mu.Lock()
	st = rs.breaker
	rs.mu.Unlock()
	if st != breakerOpen {
		t.Fatalf("failed trial left breaker %v, want open", st)
	}
}

// Reads prefer clean replicas: one holding queued hints answers only
// when no clean replica does.
func TestReadsPreferCleanReplicas(t *testing.T) {
	lagging, lagHits := fakeNode(t, linkOK(wire.MatchDTO{RefKey: "k", Similarity: 1, Exact: true}))
	clean, cleanHits := fakeNode(t, linkOK(wire.MatchDTO{RefKey: "k", Similarity: 1, Exact: true}))
	c := testClient(t, [][]string{{lagging.URL, clean.URL}})
	t.Cleanup(c.Close)

	// Mark the first replica dirty by hand (a queued hint).
	rs := c.reps[0][0]
	rs.mu.Lock()
	rs.hints = append(rs.hints, hint{index: "ix"})
	rs.draining = true // keep the drainer from racing the queue empty
	rs.mu.Unlock()

	for i := 0; i < 4; i++ {
		v, err := c.Bind(context.Background(), "ix")
		if err != nil {
			t.Fatal(err)
		}
		if got := v.Probe(join.Exact, "k"); len(got) != 1 {
			t.Fatalf("probe %d: %+v", i, got)
		}
	}
	if lagHits.Load() != 0 {
		t.Fatalf("lagging replica answered %d probes while a clean one was up", lagHits.Load())
	}
	if cleanHits.Load() != 4 {
		t.Fatalf("clean replica answered %d probes, want 4", cleanHits.Load())
	}

	// With the clean replica gone, the lagging one is the last resort.
	clean.Close()
	v, err := c.Bind(context.Background(), "ix")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Probe(join.Exact, "k"); len(got) != 1 || v.TransportErr() != nil {
		t.Fatalf("fallback probe: %+v (err %v)", got, v.TransportErr())
	}
	if lagHits.Load() == 0 {
		t.Fatal("lagging replica never consulted as last resort")
	}
}
