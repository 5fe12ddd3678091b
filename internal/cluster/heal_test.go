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

	"adaptivelink/internal/fault"
	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
)

// healNode is a canned node for the self-healing tests: it answers the
// anti-entropy surface (digest/export/resync) from a settable digest
// and counts hits per path suffix.
type healNode struct {
	srv *httptest.Server

	mu       sync.Mutex
	combined string
	tuples   int
	hits     map[string]int
}

func newHealNode(t *testing.T, combined string, tuples int) *healNode {
	t.Helper()
	n := &healNode{combined: combined, tuples: tuples, hits: make(map[string]int)}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		defer n.mu.Unlock()
		switch {
		case strings.HasSuffix(r.URL.Path, "/digest"):
			n.hits["digest"]++
			json.NewEncoder(w).Encode(digestDTO{Combined: n.combined, Tuples: n.tuples})
		case strings.HasSuffix(r.URL.Path, "/export"):
			n.hits["export"]++
			w.Header().Set("Content-Type", "application/octet-stream")
			fmt.Fprintf(w, "SNAP:%s:%d", n.combined, n.tuples)
		case strings.HasSuffix(r.URL.Path, "/resync"):
			n.hits["resync"]++
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

	if _, _, err := v.UpsertChecked([]relation.Tuple{{Key: "alpha"}}); err != nil {
		t.Fatalf("quorum-1 write with one replica down: %v", err)
	}
	if got := r1.hit("upsert"); got != 1 {
		t.Fatalf("surviving replica upserts = %d, want 1", got)
	}
	// Follow-up writes queue behind the pending hint (order preserved),
	// without attempting the broken replica.
	if _, _, err := v.UpsertChecked([]relation.Tuple{{Key: "beta"}}); err != nil {
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
	_, _, err = v.UpsertChecked([]relation.Tuple{{Key: "alpha"}})
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
	if len(rs.hints) != 0 || len(rs.needsResync) != 0 {
		t.Fatalf("failed batch queued hints: %d hints, resync %v", len(rs.hints), rs.needsResync)
	}
}

// A hint queue at capacity escalates to needs-full-resync instead of
// silently dropping writes, and anti-entropy then repairs the replica
// from a healthy one's snapshot stream.
func TestHintOverflowEscalatesToResync(t *testing.T) {
	stale := newHealNode(t, "dOLD", 1)
	ref := newHealNode(t, "dNEW", 4)
	ft := fault.NewTransport(nil)
	down := ft.Add(&fault.Rule{Node: host(stale.srv), Path: "upsert", Action: fault.Fail})

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
		if _, _, err := v.UpsertChecked([]relation.Tuple{{Key: fmt.Sprintf("k%d", i)}}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	// Past the hint horizon: the queue was cleared and the index marked.
	waitFor(t, 2*time.Second, "needs_resync to be set", func() bool {
		rs := c.reps[0][0]
		rs.mu.Lock()
		defer rs.mu.Unlock()
		return rs.needsResync["ix"] && len(rs.hints) == 0
	})
	h := c.Health(context.Background())
	if nr := h[0].Replicas[0].NeedsResync; len(nr) != 1 || nr[0] != "ix" {
		t.Fatalf("health needs_resync = %v, want [ix]", nr)
	}

	// The replica revives; one anti-entropy pass streams the reference
	// snapshot into it and clears the flag.
	down.Off()
	c.Repair(context.Background())
	if got := stale.hit("resync"); got != 1 {
		t.Fatalf("stale replica received %d resyncs, want 1", got)
	}
	if got := stale.digest(); got != "dNEW" {
		t.Fatalf("post-resync digest %q, want dNEW", got)
	}
	h = c.Health(context.Background())
	rep := h[0].Replicas[0]
	if len(rep.NeedsResync) != 0 {
		t.Fatalf("needs_resync survived the repair: %+v", rep)
	}
	if rep.Digests["ix"] != "dNEW" {
		t.Fatalf("health digest %q, want dNEW", rep.Digests["ix"])
	}

	// A second pass finds convergence and repairs nothing further.
	c.Repair(context.Background())
	if got := stale.hit("resync"); got != 1 {
		t.Fatalf("converged replica resynced again (%d)", got)
	}
}

// Anti-entropy elects the reference copy by modal digest with ties
// broken toward more tuples, and leaves unreachable replicas alone.
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
	if a.digest() != "dY" {
		t.Fatalf("minority replica digest %q, want adopted dY", a.digest())
	}
	if got := b.hit("resync"); got != 0 {
		t.Fatalf("reference replica was resynced (%d times)", got)
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

	if rs.deferWrite(c) {
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
	if !rs.deferWrite(c) {
		t.Fatal("open breaker did not defer writes")
	}

	time.Sleep(breakerCooldown + 50*time.Millisecond)
	rs.mu.Lock()
	st = rs.effectiveBreaker(c)
	rs.mu.Unlock()
	if st != breakerHalfOpen {
		t.Fatalf("breaker after cooldown = %v, want half_open", st)
	}
	if rs.deferWrite(c) {
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
	lagging, lagHits := fakeNode(t, linkOK(matchDTO{RefKey: "k", Similarity: 1, Exact: true}))
	clean, cleanHits := fakeNode(t, linkOK(matchDTO{RefKey: "k", Similarity: 1, Exact: true}))
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
