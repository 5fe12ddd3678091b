package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivelink"
)

func refTuples(keys ...string) []adaptivelink.Tuple {
	out := make([]adaptivelink.Tuple, len(keys))
	for i, k := range keys {
		out[i] = adaptivelink.Tuple{ID: i, Key: k, Attrs: []string{fmt.Sprintf("a%d", i)}}
	}
	return out
}

var testKeys = []string{"via monte bianco nord 12", "lago di como est", "valle verde ovest 9"}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	if _, err := s.CreateIndex("atlas", adaptivelink.IndexOptions{}, refTuples(testKeys...)); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	return s
}

func TestCreateIndexValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.CreateIndex("bad name!", adaptivelink.IndexOptions{}, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad name: %v", err)
	}
	if _, err := s.CreateIndex("ok", adaptivelink.IndexOptions{Theta: 9}, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad options: %v", err)
	}
	info, err := s.CreateIndex("ok", adaptivelink.IndexOptions{}, refTuples("k1", "k2"))
	if err != nil || info.Size != 2 || info.CreatedAt.IsZero() {
		t.Fatalf("create: %+v, %v", info, err)
	}
	// The create response reports the stored creation time.
	if got, err := s.GetIndex("ok"); err != nil || !got.CreatedAt.Equal(info.CreatedAt) {
		t.Fatalf("GetIndex after create = %+v (%v), want CreatedAt %v", got, err, info.CreatedAt)
	}
	if _, err := s.CreateIndex("ok", adaptivelink.IndexOptions{}, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := s.DeleteIndex("ok"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := s.DeleteIndex("ok"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestLinkSingleAndBatch(t *testing.T) {
	s := newTestService(t, Config{})
	ctx := context.Background()
	resp, err := s.Link(ctx, LinkRequest{Index: "atlas", Keys: []string{testKeys[0]}})
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if len(resp.Results) != 1 || len(resp.Results[0]) != 1 || !resp.Results[0][0].Exact {
		t.Fatalf("single link = %+v", resp.Results)
	}
	// Batch with a variant: the adaptive session escalates it.
	resp, err = s.Link(ctx, LinkRequest{
		Index: "atlas",
		Keys:  []string{testKeys[1], "via monte bianca nord 12", testKeys[2]},
	})
	if err != nil {
		t.Fatalf("Link batch: %v", err)
	}
	if got := resp.Session.Escalations; got != 1 {
		t.Fatalf("escalations = %d, want 1 (%+v)", got, resp.Session)
	}
	if len(resp.Results[1]) != 1 || resp.Results[1][0].Exact {
		t.Fatalf("variant result = %+v", resp.Results[1])
	}
	snap := s.Snapshot()
	if len(snap.Indexes) != 1 || snap.Indexes[0].Probes != 4 || snap.Indexes[0].Sessions != 2 {
		t.Fatalf("snapshot = %+v", snap.Indexes)
	}
	if snap.Indexes[0].ModelledCost <= 4 {
		t.Fatalf("modelled cost %v not above all-exact baseline", snap.Indexes[0].ModelledCost)
	}
}

func TestLinkValidation(t *testing.T) {
	s := newTestService(t, Config{MaxBatch: 2})
	ctx := context.Background()
	cases := []struct {
		req  LinkRequest
		want error
	}{
		{LinkRequest{Index: "atlas", Keys: nil}, ErrInvalid},
		{LinkRequest{Index: "atlas", Keys: []string{"a", "b", "c"}}, ErrInvalid},
		{LinkRequest{Index: "atlas", Keys: []string{"a"}, Strategy: "psychic"}, ErrInvalid},
		{LinkRequest{Index: "atlas", Keys: []string{"a"}, FutilityK: -1}, ErrInvalid},
		{LinkRequest{Index: "nosuch", Keys: []string{"a"}}, ErrNotFound},
	}
	for _, c := range cases {
		if _, err := s.Link(ctx, c.req); !errors.Is(err, c.want) {
			t.Errorf("Link(%+v) = %v, want %v", c.req, err, c.want)
		}
	}
	// Fixed strategies pass through.
	for _, strat := range []string{"exact", "approximate", "adaptive", ""} {
		if _, err := s.Link(ctx, LinkRequest{Index: "atlas", Keys: []string{"x"}, Strategy: strat}); err != nil {
			t.Errorf("strategy %q: %v", strat, err)
		}
	}
}

func TestUpsertVisibleToProbes(t *testing.T) {
	s := newTestService(t, Config{})
	ins, upd, err := s.Upsert("atlas", refTuples("corso nuovo sud 3", testKeys[0]))
	if err != nil || ins != 1 || upd != 1 {
		t.Fatalf("Upsert = %d/%d, %v", ins, upd, err)
	}
	if _, _, err := s.Upsert("nosuch", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("upsert unknown index: %v", err)
	}
	resp, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{"corso nuovo sud 3"}})
	if err != nil || len(resp.Results[0]) != 1 {
		t.Fatalf("probe after upsert = %+v, %v", resp, err)
	}
	infos := s.ListIndexes()
	if len(infos) != 1 || infos[0].Size != 4 {
		t.Fatalf("ListIndexes = %+v", infos)
	}
	if info, err := s.GetIndex("atlas"); err != nil || info.Size != 4 {
		t.Fatalf("GetIndex = %+v, %v", info, err)
	}
	if _, err := s.GetIndex("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetIndex unknown: %v", err)
	}
}

// TestLinkConcurrentSustainsLoad drives 64 concurrent in-flight link
// requests through four execution slots: admission queues them, none is
// rejected, and every response arrives.
func TestLinkConcurrentSustainsLoad(t *testing.T) {
	s := newTestService(t, Config{Workers: 4})
	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := testKeys[c%len(testKeys)]
			resp, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{key, key}})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			if len(resp.Results) != 2 || len(resp.Results[0]) != 1 {
				errs <- fmt.Errorf("client %d: bad results %+v", c, resp.Results)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := s.Snapshot()
	if snap.Indexes[0].Probes != clients*2 {
		t.Fatalf("probes = %d, want %d", snap.Indexes[0].Probes, clients*2)
	}
}

// TestLinkDeadlineWhileQueued: with the one execution slot busy, a
// short-deadline request expires waiting for it and never executes.
func TestLinkDeadlineWhileQueued(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	release := make(chan struct{})
	var once sync.Once
	s.testProbeDelay = func() { once.Do(func() { <-release }) }

	done := make(chan error, 1)
	go func() {
		_, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{testKeys[0]}})
		done <- err
	}()
	// Wait for the blocker to occupy the worker.
	waitUntil(t, func() bool { return s.Snapshot().Running == 1 })

	_, err := s.Link(context.Background(), LinkRequest{
		Index: "atlas", Keys: []string{testKeys[1]}, Timeout: 30 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request error = %v, want deadline", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked request failed: %v", err)
	}
	// The expired request must not have probed.
	if snap := s.Snapshot(); snap.Indexes[0].Probes != 1 {
		t.Fatalf("probes = %d, want 1 (expired request ran)", snap.Indexes[0].Probes)
	}
}

// TestLinkQueueWaitCountsExpiredWaiters: with the one execution slot
// held, three requests wait for it — the queued gauge counts all three —
// and expire there. Their wait is observed like any other, so the
// queue-wait and latency histograms count the same four requests.
func TestLinkQueueWaitCountsExpiredWaiters(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	release := make(chan struct{})
	var once, releaseOnce sync.Once
	s.testProbeDelay = func() { once.Do(func() { <-release }) }
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before the service's Close on a failure

	done := make(chan error, 1)
	go func() {
		_, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{testKeys[0]}})
		done <- err
	}()
	waitUntil(t, func() bool { return s.Snapshot().Running == 1 })

	const waiters = 3
	expired := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := s.Link(context.Background(), LinkRequest{
				Index: "atlas", Keys: []string{testKeys[1]}, Timeout: 500 * time.Millisecond,
			})
			expired <- err
		}()
	}
	waitUntil(t, func() bool { return s.Snapshot().Queued == waiters })
	for i := 0; i < waiters; i++ {
		if err := <-expired; !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiting request error = %v, want deadline", err)
		}
	}
	if q := s.Snapshot().Queued; q != 0 {
		t.Fatalf("queued = %d after the waiters expired, want 0", q)
	}
	unblock()
	if err := <-done; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
	if got, want := s.queueWait.Count(), s.linkLatency.Count(); got != want || want != waiters+1 {
		t.Fatalf("queue-wait count %d, latency count %d, want both %d", got, want, waiters+1)
	}
	if snap := s.Snapshot(); snap.Indexes[0].Sessions != 1 {
		t.Fatalf("sessions = %d, want 1 (an expired waiter opened one)", snap.Indexes[0].Sessions)
	}
}

// TestCloseWaitsForAdmittedLink: Close does not tear indexes down under
// a request that is executing; it returns once the request finishes,
// and the request completes normally.
func TestCloseWaitsForAdmittedLink(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.CreateIndex("atlas", adaptivelink.IndexOptions{}, refTuples(testKeys...)); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var once, releaseOnce sync.Once
	s.testProbeDelay = func() { once.Do(func() { <-release }) }
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	linked := make(chan error, 1)
	go func() {
		resp, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{testKeys[0]}})
		if err == nil && (len(resp.Results) != 1 || len(resp.Results[0]) != 1) {
			err = fmt.Errorf("bad results %+v", resp.Results)
		}
		linked <- err
	}()
	waitUntil(t, func() bool { return s.Snapshot().Running == 1 })

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a link request was executing")
	case <-time.After(50 * time.Millisecond):
	}
	unblock()
	if err := <-linked; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	<-closed
	if _, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{testKeys[0]}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("link after Close = %v, want ErrDraining", err)
	}
}

// linkAllocBudget pins the allocations of a 2-key exact in-process Link:
// admission, one session, the chunk loop and the response.
const linkAllocBudget = 15

func TestLinkAllocBudget(t *testing.T) {
	s := newTestService(t, Config{})
	req := LinkRequest{Index: "atlas", Keys: []string{testKeys[0], testKeys[1]}, Strategy: "exact"}
	resp, err := s.Link(context.Background(), req)
	if err != nil || len(resp.Results) != 2 || len(resp.Results[0]) != 1 || len(resp.Results[1]) != 1 {
		t.Fatalf("warmup link = %+v, %v", resp, err)
	}
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	if avg := testing.AllocsPerRun(200, func() {
		_, _ = s.Link(context.Background(), req)
	}); avg > linkAllocBudget {
		t.Errorf("Link allocated %.2f times per op, want <= %d", avg, linkAllocBudget)
	}
}

// TestLinkDeadlineMidBatch: a deadline expiring during execution aborts
// the batch with a deadline error.
func TestLinkDeadlineMidBatch(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	s.testProbeDelay = func() { time.Sleep(20 * time.Millisecond) }
	keys := make([]string, 50)
	for i := range keys {
		keys[i] = testKeys[i%len(testKeys)]
	}
	_, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: keys, Timeout: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-batch deadline = %v", err)
	}
}

// TestDrainGraceful: drain rejects new work, waits for in-flight work,
// and drops no responses.
func TestDrainGraceful(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	release := make(chan struct{})
	var once sync.Once
	s.testProbeDelay = func() { once.Do(func() { <-release }) }

	inFlight := make(chan error, 1)
	go func() {
		_, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{testKeys[0]}})
		inFlight <- err
	}()
	waitUntil(t, func() bool { return s.Snapshot().Running == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitUntil(t, func() bool { return s.Draining() })

	// New work is rejected while the old request is still running.
	if _, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{"x"}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("link during drain = %v, want ErrDraining", err)
	}
	select {
	case <-drained:
		t.Fatal("drain returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request dropped: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain with an expired context reports the timeout.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("second drain = %v", err)
	}
}

// TestDeleteIndexDropsMetricSeries: a deleted index stops being
// exported, and a recreated one restarts its counters from zero rather
// than inheriting the dead incarnation's values.
func TestDeleteIndexDropsMetricSeries(t *testing.T) {
	s := newTestService(t, Config{})
	if _, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{testKeys[0]}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteIndex("atlas"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	s.WriteMetrics(&b)
	if strings.Contains(b.String(), `index="atlas"`) {
		t.Fatalf("deleted index still exported:\n%s", b.String())
	}
	if _, err := s.CreateIndex("atlas", adaptivelink.IndexOptions{}, refTuples(testKeys...)); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	s.WriteMetrics(&b)
	if !strings.Contains(b.String(), `adaptivelink_probes_total{index="atlas"} 0`) {
		t.Fatalf("recreated index inherited counters:\n%s", b.String())
	}
}

// TestLinkTimeoutClampedToMaxDeadline: a client cannot hold its
// admission reservation past the server-side cap.
func TestLinkTimeoutClampedToMaxDeadline(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, MaxDeadline: 60 * time.Millisecond})
	release := make(chan struct{})
	var once sync.Once
	s.testProbeDelay = func() { once.Do(func() { <-release }) }
	done := make(chan error, 1)
	go func() {
		_, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{testKeys[0]}})
		done <- err
	}()
	waitUntil(t, func() bool { return s.Snapshot().Running == 1 })
	// Requested 10s, capped at 60ms: must fail quickly while queued.
	begin := time.Now()
	_, err := s.Link(context.Background(), LinkRequest{
		Index: "atlas", Keys: []string{testKeys[1]}, Timeout: 10 * time.Second,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("clamped request error = %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("clamp ignored: waited %v", elapsed)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := newTestService(t, Config{})
	if _, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{testKeys[0]}}); err != nil {
		t.Fatalf("Link: %v", err)
	}
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE adaptivelink_probes_total counter",
		`adaptivelink_probes_total{index="atlas"} 1`,
		`adaptivelink_index_size{index="atlas"} 3`,
		`adaptivelink_link_requests_total{code="ok"} 1`,
		`adaptivelink_matches_total{index="atlas",kind="exact"} 1`,
		"# TYPE adaptivelink_link_queued gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
