package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptivelink"
	"adaptivelink/internal/obs"
)

// newObsServer builds a server with every-request sampling and a log
// sink the test can grep.
func newObsServer(t *testing.T, cfg Config) (*Service, *httptest.Server, *bytes.Buffer) {
	t.Helper()
	var logBuf bytes.Buffer
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	}
	if cfg.Trace.SampleEvery == 0 {
		cfg.Trace.SampleEvery = 1 // sample everything: deterministic tests
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return s, ts, &logBuf
}

func TestRequestIDMintedAndEchoed(t *testing.T) {
	_, ts, _ := newObsServer(t, Config{Workers: 2})
	createAtlas(t, ts.URL)

	// No client id: the server mints one.
	resp, err := http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-ID")
	if minted == "" {
		t.Fatal("no X-Request-ID minted")
	}

	// Client id: echoed verbatim.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/indexes", nil)
	req.Header.Set("X-Request-ID", "client-chose-this")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chose-this" {
		t.Fatalf("echoed id = %q, want client-chose-this", got)
	}
}

func TestDebugTraceRetrievableByID(t *testing.T) {
	_, ts, _ := newObsServer(t, Config{Workers: 2, Trace: obs.Config{SampleEvery: -1}})
	createAtlas(t, ts.URL)

	// Sampling off, but X-Debug-Trace forces a span trace.
	raw, _ := json.Marshal(LinkRequestDTO{Index: "atlas", Key: "via monte bianco nord 12"})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/link", bytes.NewReader(raw))
	req.Header.Set("X-Request-ID", "forced-trace-1")
	req.Header.Set("X-Debug-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("link status %d", resp.StatusCode)
	}

	code, body := doJSON(t, "GET", ts.URL+"/v1/debug/requests/forced-trace-1", nil)
	if code != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", code, body)
	}
	var tr obs.Trace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if tr.ID != "forced-trace-1" || !tr.Sampled || tr.Index != "atlas" || tr.Keys != 1 {
		t.Fatalf("trace = %+v", tr)
	}
	names := make(map[string]bool)
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"queue", "session", "probe", "merge"} {
		if !names[want] {
			t.Fatalf("trace missing %q span; spans = %+v", want, tr.Spans)
		}
	}

	// An unretained id is a 404 with the error envelope.
	code, body = doJSON(t, "GET", ts.URL+"/v1/debug/requests/never-sent", nil)
	var envelope ErrorDTO
	if code != http.StatusNotFound || json.Unmarshal(body, &envelope) != nil || envelope.Error.Code != CodeNotFound {
		t.Fatalf("missing trace: %d %s", code, body)
	}
}

func TestSlowlogCapturesAndLogs(t *testing.T) {
	s, ts, logBuf := newObsServer(t, Config{
		Workers: 2,
		Trace:   obs.Config{SampleEvery: 1, SlowThreshold: time.Nanosecond},
	})
	createAtlas(t, ts.URL)
	// Any request exceeds a 1ns threshold.
	code, _ := doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: "lago di como est"})
	if code != http.StatusOK {
		t.Fatalf("link status %d", code)
	}

	codeS, body := doJSON(t, "GET", ts.URL+"/v1/debug/slowlog", nil)
	if codeS != http.StatusOK {
		t.Fatalf("slowlog: %d %s", codeS, body)
	}
	var slow SlowlogDTO
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatalf("decode slowlog: %v", err)
	}
	if slow.SlowSeen == 0 || len(slow.Traces) == 0 {
		t.Fatalf("slowlog empty: %+v", slow)
	}
	if slow.ThresholdMillis <= 0 {
		t.Fatalf("threshold_ms = %v, want the configured threshold", slow.ThresholdMillis)
	}
	if !strings.Contains(logBuf.String(), "slow request") {
		t.Fatalf("no slow-request warning logged:\n%s", logBuf.String())
	}
	// The slowlog request itself is slow under a 1ns threshold, so the
	// live counter can only have moved past the DTO's value.
	if s.tracer.SlowSeen() < slow.SlowSeen {
		t.Fatalf("SlowSeen went backwards: tracer %d, DTO %d", s.tracer.SlowSeen(), slow.SlowSeen)
	}
}

// TestSlowRequestsCounterIsTracerCount: the exported slow-request
// counter is the tracer's count, so a scrape reads a value between the
// slowlog's slow_seen just before it and just after it.
func TestSlowRequestsCounterIsTracerCount(t *testing.T) {
	_, ts, _ := newObsServer(t, Config{Workers: 2, Trace: obs.Config{SlowThreshold: time.Nanosecond}})
	createAtlas(t, ts.URL)
	slowSeen := func() uint64 {
		t.Helper()
		var slow SlowlogDTO
		if code, body := doJSON(t, "GET", ts.URL+"/v1/debug/slowlog", nil); code != http.StatusOK || json.Unmarshal(body, &slow) != nil {
			t.Fatalf("slowlog: %d %s", code, body)
		}
		return slow.SlowSeen
	}
	before := slowSeen()
	_, body := doJSON(t, "GET", ts.URL+"/metrics", nil)
	after := slowSeen()
	var got uint64
	_, line, _ := strings.Cut(string(body), "\nadaptivelink_slow_requests_total ")
	if _, err := fmt.Sscanf(line, "%d", &got); err != nil {
		t.Fatalf("no slow-request counter in the scrape (%v):\n%s", err, body)
	}
	if before == 0 || got < before || got > after {
		t.Fatalf("adaptivelink_slow_requests_total = %d, want within slow_seen [%d, %d]", got, before, after)
	}
}

func TestSlowlogDisabled(t *testing.T) {
	_, ts, _ := newObsServer(t, Config{Workers: 2, Trace: obs.Config{SlowThreshold: -1}})
	code, body := doJSON(t, "GET", ts.URL+"/v1/debug/slowlog", nil)
	if code != http.StatusOK {
		t.Fatalf("slowlog: %d %s", code, body)
	}
	var slow SlowlogDTO
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if slow.ThresholdMillis != -1 || slow.SlowSeen != 0 {
		t.Fatalf("disabled slowlog = %+v", slow)
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts, _ := newObsServer(t, Config{Workers: 2})
	code, body := doJSON(t, "GET", ts.URL+"/v1/version", nil)
	if code != http.StatusOK {
		t.Fatalf("version: %d %s", code, body)
	}
	var v VersionInfo
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" || v.Version == "" {
		t.Fatalf("version info = %+v", v)
	}
	if v.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", v.UptimeSeconds)
	}
}

// TestExplainOverHTTPReconciles drives an explain link over the wire
// and checks the decision traces agree with the session stats the same
// response reports — the end-to-end version of the package-level
// reconciliation test.
func TestExplainOverHTTPReconciles(t *testing.T) {
	_, ts, _ := newObsServer(t, Config{Workers: 2})
	createAtlas(t, ts.URL)

	keys := []string{
		"via monte bianco nord 12", // exact hit
		"via monte bianco nord 1",  // variant: escalation candidate
		"lago di como est",         // exact hit
		"no such place anywhere",   // miss
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Keys: keys, Explain: true})
	if code != http.StatusOK {
		t.Fatalf("explain link: %d %s", code, body)
	}
	var out LinkResponseDTO
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != len(keys) {
		t.Fatalf("decisions = %d, want one per key", len(out.Decisions))
	}
	var hits, matches, escalations int
	for i, d := range out.Decisions {
		if d.Key != keys[i] {
			t.Fatalf("decision %d key = %q, want %q", i, d.Key, keys[i])
		}
		if d.Hit {
			hits++
		}
		matches += d.Matches
		if d.Escalated {
			escalations++
		}
		if d.Matches != len(out.Results[i].Matches) {
			t.Fatalf("key %q: decision reports %d matches, result has %d", d.Key, d.Matches, len(out.Results[i].Matches))
		}
	}
	st := out.Session
	if hits != st.Hits || escalations != st.Escalations {
		t.Fatalf("decisions (hits=%d esc=%d) disagree with session %+v", hits, escalations, st)
	}
	last := out.Decisions[len(out.Decisions)-1]
	if last.SpendAfter != st.ModelledCost {
		t.Fatalf("final spend %v != modelled cost %v", last.SpendAfter, st.ModelledCost)
	}

	// Without the flag the field stays absent.
	code, body = doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: "lago di como est"})
	if code != http.StatusOK {
		t.Fatalf("plain link: %d %s", code, body)
	}
	if bytes.Contains(body, []byte(`"decisions"`)) {
		t.Fatalf("no-explain response leaked decisions: %s", body)
	}
}

func TestMetricsExposeObservability(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newObsServer(t, Config{Workers: 2, DataDir: dir})
	createAtlas(t, ts.URL)
	if code, body := doJSON(t, "POST", ts.URL+"/v1/link", LinkRequestDTO{Index: "atlas", Key: "lago di como est"}); code != http.StatusOK {
		t.Fatalf("link: %d %s", code, body)
	}
	if code, body := doJSON(t, "POST", ts.URL+"/v1/indexes/atlas/upsert", UpsertRequest{
		Tuples: []TupleDTO{{ID: 7, Key: "passo dello stelvio"}},
	}); code != http.StatusOK {
		t.Fatalf("upsert: %d %s", code, body)
	}

	code, body := doJSON(t, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`adaptivelink_build_info{`,
		"adaptivelink_uptime_seconds",
		"adaptivelink_goroutines",
		"adaptivelink_heap_alloc_bytes",
		`adaptivelink_link_latency_seconds_bucket{le="+Inf"}`,
		"adaptivelink_link_queue_wait_seconds_count",
		"adaptivelink_slow_requests_total",
		`adaptivelink_engine_upserts_total{index="atlas"}`,
		`adaptivelink_engine_snapshot_swaps_total{index="atlas"}`,
		`adaptivelink_engine_qgram_builds_total{index="atlas"}`,
		`adaptivelink_engine_qgram_build_keys_total{index="atlas"}`,
		`adaptivelink_engine_qgram_build_seconds_total{index="atlas"}`,
		`adaptivelink_engine_qgram_built_shards{index="atlas"}`,
		`adaptivelink_engine_qgram_posting_bytes{index="atlas"}`,
		`adaptivelink_wal_appends_total{index="atlas"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The logged upsert must show in the WAL series.
	if !strings.Contains(text, `adaptivelink_wal_appends_total{index="atlas"} 1`) {
		t.Errorf("wal appends not 1:\n%s", grepLines(text, "wal_appends"))
	}
	// Bulk load counts as one engine upsert, the HTTP upsert as another.
	if !strings.Contains(text, `adaptivelink_engine_upserts_total{index="atlas"} 2`) {
		t.Errorf("engine upserts not 2:\n%s", grepLines(text, "engine_upserts"))
	}
}

func TestLoadStoredLogsRecovery(t *testing.T) {
	dir := t.TempDir()
	{
		_, ts, _ := newObsServer(t, Config{Workers: 2, DataDir: dir})
		createAtlas(t, ts.URL)
		if code, body := doJSON(t, "POST", ts.URL+"/v1/indexes/atlas/upsert", UpsertRequest{
			Tuples: []TupleDTO{{ID: 9, Key: "rifugio torino"}},
		}); code != http.StatusOK {
			t.Fatalf("upsert: %d %s", code, body)
		}
		ts.Close()
	}

	var logBuf bytes.Buffer
	s2 := New(Config{Workers: 2, DataDir: dir, Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	defer s2.Close()
	names, err := s2.LoadStored()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "atlas" {
		t.Fatalf("recovered = %v", names)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, `msg="reloaded index"`) || !strings.Contains(logged, "index=atlas") {
		t.Fatalf("reload not logged:\n%s", logged)
	}
	if !strings.Contains(logged, "wal_batches=1") {
		t.Fatalf("replayed batch count not logged:\n%s", logged)
	}
}

func TestServiceSlowLinkWarnsOnDeadline(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{
		Workers:         1,
		DefaultDeadline: 30 * time.Millisecond,
		Logger:          slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	defer s.Close()
	if _, err := s.CreateIndex("atlas", adaptivelink.IndexOptions{}, []adaptivelink.Tuple{{ID: 1, Key: "a key"}}); err != nil {
		t.Fatal(err)
	}
	s.testProbeDelay = func() { time.Sleep(20 * time.Millisecond) }
	_, err := s.Link(context.Background(), LinkRequest{Index: "atlas", Keys: []string{"x", "y", "z", "w"}})
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if !strings.Contains(logBuf.String(), "link deadline exceeded") {
		t.Fatalf("deadline not logged:\n%s", logBuf.String())
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return fmt.Sprint(strings.Join(out, "\n"))
}
