package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivelink"
	"adaptivelink/internal/fault"
	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/wire"
)

func TestParseSpec(t *testing.T) {
	m, err := ParseSpec("http://a:1,http://b:2/; http://c:3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Groups) != 2 || len(m.Groups[0]) != 2 || len(m.Groups[1]) != 1 {
		t.Fatalf("groups = %v", m.Groups)
	}
	if m.Groups[0][1] != "http://b:2" {
		t.Fatalf("trailing slash kept: %q", m.Groups[0][1])
	}
	if m.Shards != 2 {
		t.Fatalf("default shards = %d, want one per group", m.Shards)
	}
	if gs := m.Ranges(); len(gs) != 2 || gs[0].Len() != 1 {
		t.Fatalf("ranges = %v", gs)
	}

	for _, bad := range []struct {
		spec   string
		shards int
	}{
		{"", 0},
		{";;", 0},
		{"ftp://a", 0},
		{"http://a;http://b", 1},  // 1 shard cannot cover 2 groups
		{"http://a,http://a", 0},  // one node listed twice in a group
		{"http://a/,http://a", 0}, // the same, after the trailing-slash trim
		{"http://a;http://b,http://a/", 0},
	} {
		if _, err := ParseSpec(bad.spec, bad.shards); err == nil {
			t.Errorf("ParseSpec(%q, %d): want error", bad.spec, bad.shards)
		}
	}
}

// TestMapValidateDuplicates: a replica URL listed twice, within a group
// or across groups, is refused; distinct URLs are not.
func TestMapValidateDuplicates(t *testing.T) {
	for _, c := range []struct {
		groups [][]string
		ok     bool
	}{
		{[][]string{{"http://a", "http://b"}, {"http://c"}}, true},
		{[][]string{{"http://a:1", "http://a:2"}}, true},
		{[][]string{{"http://a", "https://a"}}, true},
		{[][]string{{"http://a", "http://a"}}, false},
		{[][]string{{"http://a"}, {"http://a"}}, false},
		{[][]string{{"http://a/"}, {"http://b", "http://a"}}, false},
	} {
		err := Map{Shards: len(c.groups), Groups: c.groups}.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%v) = %v, want ok=%v", c.groups, err, c.ok)
		}
	}
}

func TestEnvelopeHelpers(t *testing.T) {
	body := []byte(`{"error":{"code":"draining","message":"service draining"}}`)
	if c := envelopeCode(body); c != "draining" {
		t.Fatalf("envelopeCode = %q", c)
	}
	if m := envelopeMessage(body); m != "draining: service draining" {
		t.Fatalf("envelopeMessage = %q", m)
	}
	if c := envelopeCode([]byte("not json")); c != "" {
		t.Fatalf("envelopeCode on garbage = %q", c)
	}
	if m := envelopeMessage([]byte("plain text")); m != "plain text" {
		t.Fatalf("envelopeMessage fallback = %q", m)
	}
}

// keysHomedOn returns n distinct keys whose home group under m is g.
func keysHomedOn(m Map, g, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if k := fmt.Sprintf("key %d", i); m.home(k) == g {
			out = append(out, k)
		}
	}
	return out
}

// merge keeps only what each answering group is home to — a non-home
// copy (left by a release that replicated keys onto their signature
// groups) is dropped, never deduplicated against — and orders the rest
// by join.CompareMatches: the exact match, then similarity descending,
// then key. The order is a function of the match set alone, so it does
// not depend on the order the groups listed their matches in, and a key
// written around the router (one the router never saw) needs no special
// case: it sorts into place.
func TestMergeOrdersByContentAndFiltersNonHome(t *testing.T) {
	m := Map{Shards: 4, Groups: [][]string{{"http://a"}, {"http://b"}}}
	on0, on1 := keysHomedOn(m, 0, 3), keysHomedOn(m, 1, 2)
	rm := func(key string, sim float64, attr string) join.RefMatch {
		return join.RefMatch{Ref: relation.Tuple{Key: key, Attrs: []string{attr}}, Similarity: sim, Exact: sim == 1}
	}
	answers := [][]join.RefMatch{
		0: {rm(on0[0], 0.8, "home"), rm(on1[0], 1, "stale non-home copy"), rm(on0[2], 0.8, "home"), rm(on0[1], 0.9, "home, written around the router")},
		1: {rm(on1[1], 0.8, "home"), rm(on1[0], 1, "home"), rm(on0[1], 0.9, "stale non-home copy")},
	}
	tied := []string{on0[0], on0[2], on1[1]}
	slices.Sort(tied)
	want := append([]string{on1[0], on0[1]}, tied...)

	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 8; round++ {
		got := m.merge(answers)
		if len(got) != len(want) {
			t.Fatalf("len = %d, want %d: %+v", len(got), len(want), got)
		}
		for i, w := range want {
			if got[i].Ref.Key != w {
				t.Fatalf("round %d: order[%d] = %q, want %q", round, i, got[i].Ref.Key, w)
			}
			if !strings.HasPrefix(got[i].Ref.Attrs[0], "home") {
				t.Fatalf("%q answered from its %s", w, got[i].Ref.Attrs[0])
			}
		}
		for _, ms := range answers {
			rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		}
	}
	if got := m.merge([][]join.RefMatch{nil, nil}); len(got) != 0 {
		t.Fatalf("empty answers merged to %+v", got)
	}
}

// fakeNode is a canned node: it answers /v1/link from fn and counts
// hits.
func fakeNode(t *testing.T, fn http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fn(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func linkOK(matches ...wire.MatchDTO) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req wire.LinkRequestDTO
		json.NewDecoder(r.Body).Decode(&req)
		resp := wire.LinkResponseDTO{}
		for range req.Keys {
			resp.Results = append(resp.Results, wire.KeyResultDTO{Matches: matches})
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}
}

func testClient(t *testing.T, groups [][]string) *Client {
	t.Helper()
	c, err := New(Config{Map: Map{Shards: len(groups), Groups: groups}})
	if err != nil {
		t.Fatal(err)
	}
	if err := registerOnly(c, "ix"); err != nil {
		t.Fatal(err)
	}
	return c
}

// registerOnly registers routing state without the create fan-out (the
// fakes have no create endpoint).
func registerOnly(c *Client, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.indexes[name] = &indexState{name: name}
	return nil
}

// Reads fail over within a group: a dead replica and a draining replica
// are both skipped, the healthy one answers.
func TestGroupLinkFailsOver(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	draining, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":{"code":"draining","message":"service draining"}}`))
	})
	healthy, healthyHits := fakeNode(t, linkOK(wire.MatchDTO{RefKey: "k", Similarity: 1, Exact: true}))

	c := testClient(t, [][]string{{dead.URL, draining.URL, healthy.URL}})
	for i := 0; i < 3; i++ { // every round-robin phase reaches the healthy replica
		v, err := c.Bind(context.Background(), "ix")
		if err != nil {
			t.Fatal(err)
		}
		got := v.Probe(join.Exact, "k")
		if err := v.TransportErr(); err != nil {
			t.Fatalf("round %d: transport error %v", i, err)
		}
		if len(got) != 1 || got[0].Ref.Key != "k" {
			t.Fatalf("round %d: got %+v", i, got)
		}
	}
	if healthyHits.Load() == 0 {
		t.Fatal("healthy replica never reached")
	}
}

// A group with no answering replica is ErrNodeUnavailable, sticky on
// the view, and later probes short-circuit without network calls.
func TestViewNodeUnavailableIsSticky(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	c := testClient(t, [][]string{{dead.URL}})
	v, err := c.Bind(context.Background(), "ix")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Probe(join.Exact, "k"); len(got) != 0 {
		t.Fatalf("got %+v from a dead cluster", got)
	}
	if err := v.TransportErr(); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("TransportErr = %v, want ErrNodeUnavailable", err)
	}
	if got := v.Probe(join.Exact, "other"); len(got) != 0 {
		t.Fatalf("short-circuit probe returned %+v", got)
	}
}

// A node-reported deadline becomes the bare context.DeadlineExceeded —
// the service layer's error mapping (and message bytes) depend on it.
func TestViewDeadlineEnvelopeIsBareDeadline(t *testing.T) {
	slow, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGatewayTimeout)
		w.Write([]byte(`{"error":{"code":"deadline","message":"link \"ix\": context deadline exceeded"}}`))
	})
	c := testClient(t, [][]string{{slow.URL}})
	v, err := c.Bind(context.Background(), "ix")
	if err != nil {
		t.Fatal(err)
	}
	v.Probe(join.Exact, "k")
	if err := v.TransportErr(); err != context.DeadlineExceeded {
		t.Fatalf("TransportErr = %v, want bare context.DeadlineExceeded", err)
	}
}

// keyedNode is a fake node whose upserts answer as a node's do: a key it
// does not hold yet counts as inserted, one it holds as updated.
func keyedNode(t *testing.T) (*httptest.Server, *atomic.Int64) {
	var mu sync.Mutex
	keys := make(map[string]bool)
	return fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		var req wire.UpsertRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		var resp wire.UpsertResponse
		for _, tu := range req.Tuples {
			if keys[tu.Key] {
				resp.Updated++
			} else {
				keys[tu.Key] = true
				resp.Inserted++
			}
		}
		resp.Size = len(keys)
		json.NewEncoder(w).Encode(resp)
	})
}

// Writes fan to every replica of each tuple's home group — and to no
// other group — report the counts the group answered, and advance the
// index's size only on success.
func TestUpsertWritesAllReplicasAndSequences(t *testing.T) {
	r0, h0 := keyedNode(t)
	r1, h1 := keyedNode(t)
	other, hOther := keyedNode(t)
	c := testClient(t, [][]string{{r0.URL, r1.URL}, {other.URL}})
	home := keysHomedOn(c.cfg.Map, 0, 3)
	v, err := c.Bind(context.Background(), "ix")
	if err != nil {
		t.Fatal(err)
	}
	ins, upd, err := v.Upsert([]relation.Tuple{{Key: home[0]}, {Key: home[1]}, {Key: home[0]}})
	if err != nil {
		t.Fatal(err)
	}
	if ins != 2 || upd != 1 {
		t.Fatalf("ins/upd = %d/%d, want 2/1", ins, upd)
	}
	if h0.Load() != 1 || h1.Load() != 1 {
		t.Fatalf("replica hits = %d/%d, want 1/1 (writes land on every replica)", h0.Load(), h1.Load())
	}
	if n := hOther.Load(); n != 0 {
		t.Fatalf("non-home group received %d requests, want 0 (R = 1: one group per reference)", n)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}

	// A failed write leaves the size untouched.
	r0.Close()
	if _, _, err := v.Upsert([]relation.Tuple{{Key: home[2]}}); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("write to dead replica: %v, want ErrNodeUnavailable", err)
	}
	if v.Len() != 2 {
		t.Fatalf("Len advanced to %d on a failed write", v.Len())
	}
	// ...while a key homed on the healthy group still lands: groups fail
	// independently.
	if _, _, err := v.Upsert([]relation.Tuple{{Key: keysHomedOn(c.cfg.Map, 1, 1)[0]}}); err != nil {
		t.Fatalf("write homed on the healthy group: %v", err)
	}
	if hOther.Load() != 1 || v.Len() != 3 {
		t.Fatalf("healthy-group write: hits %d, Len %d, want 1 and 3", hOther.Load(), v.Len())
	}
}

// A batch that fails below quorum has still landed where it was
// acknowledged: on group 0, and on the one replica of group 1 that
// answered while its peer was unreachable. The index's size counts
// group 0's rows, which the groups hold. The retry reports the counts
// the nodes answer: group 0's rows as updated, and group 1's from the
// replica that reports inserting them, since the failed attempt counted
// nothing there. Each key is counted once.
func TestUpsertRetryAfterBelowQuorumReportsNodeCounts(t *testing.T) {
	n0, _ := keyedNode(t)
	a1, _ := keyedNode(t)
	b1, hb1 := keyedNode(t)
	ft := fault.NewTransport(nil)
	down := ft.Add(&fault.Rule{Node: host(b1), Path: "upsert", Action: fault.Fail})
	c, err := New(Config{
		Map:          Map{Shards: 2, Groups: [][]string{{n0.URL}, {a1.URL, b1.URL}}},
		WriteQuorum:  2,
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
	var batch []relation.Tuple
	for _, k := range append(keysHomedOn(c.cfg.Map, 0, 2), keysHomedOn(c.cfg.Map, 1, 3)...) {
		batch = append(batch, relation.Tuple{Key: k})
	}

	if _, _, err := v.Upsert(batch); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("batch with a replica of group 1 unreachable at quorum 2: %v, want ErrNodeUnavailable", err)
	}
	if hb1.Load() != 0 || v.Len() != 2 {
		t.Fatalf("after the failed batch: the unreachable replica saw %d upserts, Len %d; want 0 and group 0's 2 keys", hb1.Load(), v.Len())
	}
	down.Off()
	ins, upd, err := v.Upsert(batch)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if ins != 3 || upd != 2 || v.Len() != 5 {
		t.Fatalf("retry = %d inserted, %d updated, Len %d; want 3, 2 and 5", ins, upd, v.Len())
	}
}

// CreateIndex rolls its registration back when a node refuses.
func TestCreateIndexRollsBack(t *testing.T) {
	refuse, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":{"code":"internal","message":"boom"}}`))
	})
	c, err := New(Config{Map: Map{Shards: 1, Groups: [][]string{{refuse.URL}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("ix", adaptivelink.IndexOptions{}, adaptivelink.FromTuples(nil)); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("CreateIndex = %v, want ErrNodeUnavailable", err)
	}
	if names := c.Names(); len(names) != 0 {
		t.Fatalf("registration leaked: %v", names)
	}
	if _, err := c.Bind(context.Background(), "ix"); err == nil {
		t.Fatal("Bind found a rolled-back index")
	}
}
