package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivelink/internal/service"
)

// startDaemon runs the adaptivelinkd core on an ephemeral port and
// returns its base URL plus a shutdown function that cancels it and
// returns (exit code, stdout, stderr).
func startDaemon(t *testing.T, extraArgs ...string) (string, func() (int, string, string)) {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	ctx, cancel := context.WithCancel(context.Background())
	var out, errb bytes.Buffer
	codeCh := make(chan int, 1)
	var mu sync.Mutex // guards out/errb between daemon goroutine and test
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extraArgs...)
	go func() {
		mu.Lock()
		defer mu.Unlock()
		codeCh <- runAdaptiveLinkd(ctx, args, &out, &errb)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			addr = string(raw)
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("daemon did not write its address in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop := func() (int, string, string) {
		cancel()
		select {
		case code := <-codeCh:
			mu.Lock()
			defer mu.Unlock()
			return code, out.String(), errb.String()
		case <-time.After(20 * time.Second):
			t.Fatal("daemon did not drain in time")
			return -1, "", ""
		}
	}
	return "http://" + addr, stop
}

func TestAdaptiveLinkdServesAndDrains(t *testing.T) {
	base, stop := startDaemon(t)
	// Create an index and link against it over the wire.
	body := `{"name":"atlas","tuples":[{"key":"via monte bianco nord 12"},{"key":"lago di como est"}]}`
	resp, err := http.Post(base+"/v1/indexes", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/link", "application/json",
		strings.NewReader(`{"index":"atlas","key":"via monte bianca nord 12"}`))
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	var lr service.LinkResponseDTO
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if len(lr.Results) != 1 || len(lr.Results[0].Matches) != 1 || lr.Results[0].Matches[0].Exact {
		t.Fatalf("escalated link over the wire = %+v", lr.Results)
	}
	code, stdout, stderr := stop()
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"msg=listening", "msg=draining", "drained, bye"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

func TestAdaptiveLinkdPreload(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "ref.csv")
	if err := os.WriteFile(csvPath, []byte("location,extra\nvia monte bianco nord 12,a\nlago di como est,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, stop := startDaemon(t, "-preload", "atlas="+csvPath, "-preload-key", "location")
	resp, err := http.Get(base + "/v1/indexes/atlas")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	var info service.IndexInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if info.Size != 2 {
		t.Fatalf("preloaded size = %d, want 2", info.Size)
	}
	if code, stdout, _ := stop(); code != 0 || !strings.Contains(stdout, `msg="preloaded index" index=atlas tuples=2`) {
		t.Fatalf("exit %d stdout %s", code, stdout)
	}
}

func TestAdaptiveLinkdFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	ctx := context.Background()
	if code := runAdaptiveLinkd(ctx, []string{"-nope"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit = %d", code)
	}
	if code := runAdaptiveLinkd(ctx, []string{"-preload", "malformed"}, &out, &errb); code != 2 {
		t.Fatalf("bad preload exit = %d", code)
	}
	if code := runAdaptiveLinkd(ctx, []string{"-preload", "x=/does/not/exist.csv"}, &out, &errb); code != 1 {
		t.Fatalf("missing preload exit = %d", code)
	}
	if code := runAdaptiveLinkd(ctx, []string{"-addr", "256.256.256.256:99999"}, &out, &errb); code != 1 {
		t.Fatalf("bad addr exit = %d", code)
	}
}

func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := RunLinkBench(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestLinkBenchAgainstService(t *testing.T) {
	svc := service.New(service.Config{Workers: 4})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	code, stdout, stderr := runBench(t,
		"-addr", ts.URL, "-n", "40", "-c", "8", "-batch", "3", "-parent", "200")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{
		`created index "bench" with 200 tuples`,
		"40 requests x 3 keys, 8 clients, strategy adaptive",
		"req/s", "probes/s", "latency p50", "errors 0", "server p99",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	// A second run reuses the index rather than failing on the 409.
	code, stdout, stderr = runBench(t, "-addr", ts.URL, "-n", "10", "-c", "2", "-parent", "200")
	if code != 0 {
		t.Fatalf("second run exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "already exists, reusing") {
		t.Errorf("second run did not reuse index:\n%s", stdout)
	}
}

func TestLinkBenchValidation(t *testing.T) {
	if code, _, _ := runBench(t); code != 2 {
		t.Fatal("missing -addr accepted")
	}
	if code, _, _ := runBench(t, "-addr", "http://x", "-n", "0"); code != 2 {
		t.Fatal("zero -n accepted")
	}
	// linkbench records nothing: -out is a usage error like any unknown flag.
	if code, _, _ := runBench(t, "-addr", "http://x", "-out", "x"); code != 2 {
		t.Fatal("-out accepted")
	}
	// Unreachable server: requests fail, exit 1.
	code, _, stderr := runBench(t, "-addr", "http://127.0.0.1:1", "-n", "3", "-c", "1", "-parent", "50")
	if code != 1 {
		t.Fatalf("unreachable server exit = %d, stderr: %s", code, stderr)
	}
}

func TestLinkBenchFailsOnNon2xx(t *testing.T) {
	// A server without the bench index and -create=false: 404s must
	// surface as a non-zero exit.
	svc := service.New(service.Config{})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()
	code, _, stderr := runBench(t, "-addr", ts.URL, "-create=false", "-n", "5", "-c", "2", "-parent", "50")
	if code != 1 || !strings.Contains(stderr, "requests failed") {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
}

// Satellite smoke: -cpuprofile/-memprofile must write non-empty pprof
// files so future perf PRs can attach profiling evidence.
func TestLinkBenchWritesProfiles(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, stdout, stderr := runBench(t,
		"-addr", ts.URL, "-n", "60", "-c", "4", "-batch", "2", "-parent", "150",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	// The profiles must parse as gzipped pprof data (magic 0x1f8b).
	for _, p := range []string{cpu, mem} {
		raw, err := os.ReadFile(p)
		if err != nil || len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
			t.Errorf("profile %s does not look like pprof output (err %v)", p, err)
		}
	}
}

func TestLinkBenchProfileFlagErrors(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()

	if code, _, errb := runBench(t,
		"-addr", ts.URL, "-n", "1", "-c", "1", "-parent", "150",
		"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof")); code != 1 ||
		!strings.Contains(errb, "-cpuprofile") {
		t.Fatalf("bad cpuprofile path: exit %d stderr %s", code, errb)
	}
	if code, _, errb := runBench(t,
		"-addr", ts.URL, "-n", "1", "-c", "1", "-parent", "150",
		"-memprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof")); code != 1 ||
		!strings.Contains(errb, "-memprofile") {
		t.Fatalf("bad memprofile path: exit %d stderr %s", code, errb)
	}
}

// TestAdaptiveLinkdDataDirRestart: the daemon's durability loop over
// the wire — boot with -data-dir, create a durable index, restart over
// the same directory, and get the reload announced plus the same data
// served. Also pins the -wal-sync flag's validation and the
// preload-skipped-on-reload branch.
func TestAdaptiveLinkdDataDirRestart(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runAdaptiveLinkd(context.Background(), []string{"-wal-sync", "sometimes"}, &out, &errb); code != 2 {
		t.Fatalf("bad -wal-sync exit = %d", code)
	}
	if !strings.Contains(errb.String(), "always or none") {
		t.Fatalf("bad -wal-sync stderr: %s", errb.String())
	}
	if code := runAdaptiveLinkd(context.Background(), []string{"-data-dir", filepath.Join(string([]byte{0}), "impossible")}, &out, &errb); code == 0 {
		t.Fatal("unusable -data-dir accepted")
	}

	dataDir := t.TempDir()
	csvPath := filepath.Join(t.TempDir(), "ref.csv")
	if err := os.WriteFile(csvPath, []byte("location,extra\nvia monte bianco nord 12,a\nlago di como est,b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	durableArgs := []string{"-data-dir", dataDir, "-wal-sync", "none", "-preload", "atlas=" + csvPath}
	base, stop := startDaemon(t, durableArgs...)
	resp, err := http.Post(base+"/v1/indexes/atlas/upsert", "application/json",
		strings.NewReader(`{"tuples":[{"id":9,"key":"passo pordoi ovest"}]}`))
	if err != nil {
		t.Fatalf("upsert: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert = %d", resp.StatusCode)
	}
	if code, _, stderr := stop(); code != 0 {
		t.Fatalf("first run exit %d, stderr: %s", code, stderr)
	}

	base, stop = startDaemon(t, durableArgs...)
	resp, err = http.Get(base + "/v1/indexes/atlas")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	var info service.IndexInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if info.Size != 3 || !info.Durable || info.WALRecords != 1 {
		t.Fatalf("reloaded info = %+v, want 3 tuples, durable, 1 logged batch", info)
	}
	code, stdout, stderr := stop()
	if code != 0 {
		t.Fatalf("second run exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{`msg="reloaded index" index=atlas tuples=3 snapshot_tuples=2 wal_batches=1`, `msg="preload skipped, index reloaded from data dir" index=atlas`} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}
