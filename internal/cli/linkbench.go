package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adaptivelink"
	"adaptivelink/internal/service"
)

// RunLinkBench implements cmd/linkbench: a closed-loop load generator
// for adaptivelinkd. It creates (or reuses) a benchmark index from
// generated test data, fires -n link requests from -c concurrent
// clients and reports throughput and latency on stdout. Exit code 0
// means every request got a 2xx. It is a smoke driver and operator
// tool, not a record: measurements that back claims come from the
// repository benchmark (BENCHMARK.json, benchmark/).
func RunLinkBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("linkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "", "base URL of adaptivelinkd, e.g. http://127.0.0.1:8080 (required)")
		n        = fs.Int("n", 1000, "total link requests")
		c        = fs.Int("c", 64, "concurrent clients (in-flight requests)")
		batch    = fs.Int("batch", 4, "probe keys per request")
		index    = fs.String("index", "bench", "index name")
		create   = fs.Bool("create", true, "create the index from generated data first (409 = reuse)")
		parent   = fs.Int("parent", 2000, "generated parent (reference) size")
		rate     = fs.Float64("variant-rate", 0.1, "generated variant rate in the probe stream")
		seed     = fs.Int64("seed", 42, "generator seed")
		strategy = fs.String("strategy", "adaptive", "session strategy: adaptive, exact or approximate")
		shards   = fs.Int("shards", 0, "shard count for a created index (0 = server default)")
		timeout  = fs.Duration("timeout", 30*time.Second, "client HTTP timeout")
		p99Drift = fs.Float64("p99-drift-pct", 0, "fail when the client p99 and the server's adaptivelink_link_latency_seconds p99 disagree by more than this percent of the client value (0 = report only)")
		retries  = fs.Int("retries", 3, "retransmissions per request for transient dial errors (connection refused/reset); never retries HTTP error envelopes")
		backoff  = fs.Duration("retry-backoff", 25*time.Millisecond, "first retry backoff; doubles per attempt with jitter")
		cpuprof  = fs.String("cpuprofile", "", "write a pprof CPU profile of the load-generation phase to this file")
		memprof  = fs.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" {
		fmt.Fprintln(stderr, "linkbench: -addr is required")
		fs.Usage()
		return 2
	}
	if *n < 1 || *c < 1 || *batch < 1 {
		fmt.Fprintln(stderr, "linkbench: -n, -c and -batch must be positive")
		return 2
	}

	data, err := adaptivelink.GenerateTestData(*seed, *parent, (*parent)*2, adaptivelink.PatternUniform, *rate, false)
	if err != nil {
		fmt.Fprintf(stderr, "linkbench: %v\n", err)
		return 1
	}
	client := &http.Client{Timeout: *timeout}
	var retryCount atomic.Int64

	if *create {
		tuples := make([]service.TupleDTO, len(data.Parent))
		for i, t := range data.Parent {
			tuples[i] = service.TupleDTO{ID: t.ID, Key: t.Key, Attrs: t.Attrs}
		}
		code, body, err := postJSONRetry(client, *addr+"/v1/indexes", service.CreateIndexRequest{Name: *index, Shards: *shards, Tuples: tuples}, "linkbench-create", *retries, *backoff, &retryCount)
		if err != nil {
			fmt.Fprintf(stderr, "linkbench: create index: %v\n", err)
			return 1
		}
		switch code {
		case http.StatusCreated:
			fmt.Fprintf(stdout, "linkbench: created index %q with %d tuples\n", *index, len(tuples))
		case http.StatusConflict:
			fmt.Fprintf(stdout, "linkbench: index %q already exists, reusing\n", *index)
		default:
			fmt.Fprintf(stderr, "linkbench: create index: %d %s\n", code, body)
			return 1
		}
	}

	keys := make([]string, len(data.Child))
	for i, t := range data.Child {
		keys[i] = t.Key
	}

	// Profiling covers exactly the load-generation phase, so a perf PR
	// can attach pprof evidence of the client+server hot path without
	// index-creation noise. (With a local server the profile includes
	// only this process's side; profile the server separately for its.)
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(stderr, "linkbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "linkbench: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// The server's latency histogram is cumulative since it started, so
	// it also holds whatever was linked before this run: scrape it now,
	// and the crosscheck below compares only the requests sent here.
	baseline, baseErr := fetchMetrics(client, *addr)

	var next atomic.Int64
	var errCount atomic.Int64
	var errMu sync.Mutex
	var probeCount atomic.Int64
	latencies := make([]time.Duration, *n)
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				req := service.LinkRequestDTO{Index: *index, Strategy: *strategy}
				for k := 0; k < *batch; k++ {
					req.Keys = append(req.Keys, keys[(i**batch+k)%len(keys)])
				}
				reqID := fmt.Sprintf("linkbench-%d", i)
				t0 := time.Now()
				code, body, err := postJSONRetry(client, *addr+"/v1/link", req, reqID, *retries, *backoff, &retryCount)
				latencies[i] = time.Since(t0)
				probeCount.Add(int64(*batch))
				if err != nil || code < 200 || code > 299 {
					if errCount.Add(1) <= 3 {
						// stderr is the caller's writer, not necessarily
						// safe for concurrent use: one worker at a time.
						errMu.Lock()
						fmt.Fprintf(stderr, "linkbench: request %s: code %d err %v body %s\n", reqID, code, err, truncate(body, 200))
						errMu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)

	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fmt.Fprintf(stderr, "linkbench: -memprofile: %v\n", err)
			return 1
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "linkbench: -memprofile: %v\n", err)
			f.Close()
			return 1
		}
		f.Close()
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx].Microseconds()) / 1000
	}
	secs := elapsed.Seconds()
	p99 := pct(0.99)
	fmt.Fprintf(stdout, "linkbench: %d requests x %d keys, %d clients, strategy %s\n", *n, *batch, *c, *strategy)
	fmt.Fprintf(stdout, "linkbench: %.2fs total, %.0f req/s, %.0f probes/s\n", secs, float64(*n)/secs, float64(probeCount.Load())/secs)
	fmt.Fprintf(stdout, "linkbench: latency p50 %.2fms p95 %.2fms p99 %.2fms, errors %d, dial retries %d\n",
		pct(0.50), pct(0.95), p99, errCount.Load(), retryCount.Load())

	// Cross-check the client-side p99 against the server's own latency
	// histogram, over the samples it gained during the run: the two
	// measure the same requests from opposite ends of the connection, so
	// a large disagreement means either histogram buckets misconfigured
	// on the server or queueing the client cannot see. The server
	// estimate is bucket-interpolated, so compare with slack
	// (-p99-drift-pct), not equality.
	serverP99, err := fetchServerP99(client, *addr, baseline)
	if baseErr != nil {
		err = baseErr
	}
	if err != nil {
		fmt.Fprintf(stderr, "linkbench: server p99 crosscheck: %v\n", err)
		if *p99Drift > 0 {
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "linkbench: server p99 %.2fms (client %.2fms)\n", serverP99, p99)
		if *p99Drift > 0 && p99 > 0 {
			drift := (serverP99 - p99) / p99 * 100
			if drift < 0 {
				drift = -drift
			}
			if drift > *p99Drift {
				fmt.Fprintf(stderr, "linkbench: server p99 %.2fms drifts %.0f%% from client %.2fms (limit %.0f%%)\n",
					serverP99, drift, p99, *p99Drift)
				return 1
			}
		}
	}

	if errCount.Load() > 0 {
		fmt.Fprintf(stderr, "linkbench: %d of %d requests failed\n", errCount.Load(), *n)
		return 1
	}
	return 0
}

// isTransientDialErr reports whether err is a connection-level failure
// worth retransmitting: the request never produced an HTTP response, so
// a retry cannot double-apply anything the server saw. Connection
// refused and reset cover the node-restart and drain races a cluster
// smoke provokes on purpose; everything else (deadline exceeded, DNS,
// protocol errors) fails fast.
func isTransientDialErr(err error) bool {
	return err != nil &&
		(errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET))
}

// postJSONRetry is postJSON with bounded retry under jittered
// exponential backoff for transient dial errors. Any HTTP response —
// including a 4xx/5xx error envelope — is returned as-is: that is the
// server speaking, not a transport flake, and retrying it would mask
// real failures. retries is the number of retransmissions after the
// first attempt; retried, when non-nil, counts them for reporting.
func postJSONRetry(client *http.Client, url string, payload any, reqID string, retries int, base time.Duration, retried *atomic.Int64) (int, []byte, error) {
	for attempt := 0; ; attempt++ {
		code, body, err := postJSON(client, url, payload, reqID)
		if attempt >= retries || !isTransientDialErr(err) {
			return code, body, err
		}
		if retried != nil {
			retried.Add(1)
		}
		// Full jitter over [d/2, d): staggers the retry herd a killed
		// node would otherwise see the instant it comes back.
		d := base << attempt
		if d > 2*time.Second {
			d = 2 * time.Second
		}
		time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d/2)+1)))
	}
}

// postJSON posts payload and returns the response. A non-empty reqID
// is sent as X-Request-ID, so client-side failures correlate with the
// server's slow log and request traces by id.
func postJSON(client *http.Client, url string, payload any, reqID string) (int, []byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// fetchMetrics returns addr's /metrics exposition.
func fetchMetrics(client *http.Client, addr string) (string, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// fetchServerP99 scrapes /metrics and returns the p99 of the samples
// the server's link latency histogram gained since the baseline
// exposition, in milliseconds.
func fetchServerP99(client *http.Client, addr, baseline string) (float64, error) {
	body, err := fetchMetrics(client, addr)
	if err != nil {
		return 0, err
	}
	sec, ok := histQuantile(baseline, body, "adaptivelink_link_latency_seconds", 0.99)
	if !ok {
		return 0, fmt.Errorf("adaptivelink_link_latency_seconds gained no samples in /metrics")
	}
	return sec * 1000, nil
}

// histBucket is one cumulative bucket of a histogram series.
type histBucket struct {
	le  float64
	cum uint64
}

// histBuckets parses the buckets of the unlabelled histogram series name
// from a Prometheus text exposition, ascending by bound.
func histBuckets(exposition, name string) []histBucket {
	var buckets []histBucket
	prefix := name + `_bucket{le="`
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		boundStr, countStr, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		le := math.Inf(1)
		if boundStr != "+Inf" {
			le, _ = strconv.ParseFloat(boundStr, 64)
		}
		cum, err := strconv.ParseUint(strings.TrimSpace(countStr), 10, 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, histBucket{le, cum})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	return buckets
}

// histQuantile estimates quantile q (0 < q <= 1) of the samples the
// unlabelled histogram series name gained between two Prometheus text
// expositions of it — the bucket-wise difference; a baseline without
// the series counts as empty, and one above the later counts (the
// server restarted between them) is ignored — by linear interpolation
// inside the bucket holding the quantile. Returns false when the series
// is absent or gained nothing. The quantile of a sample in the +Inf
// bucket is reported as the last finite bound (the histogram cannot
// resolve beyond it).
func histQuantile(baseline, exposition, name string, q float64) (float64, bool) {
	buckets := histBuckets(exposition, name)
	if len(buckets) == 0 {
		return 0, false
	}
	base := make(map[float64]uint64)
	for _, b := range histBuckets(baseline, name) {
		base[b.le] = b.cum
	}
	if base[math.Inf(1)] <= buckets[len(buckets)-1].cum {
		for i := range buckets {
			buckets[i].cum -= min(buckets[i].cum, base[buckets[i].le])
		}
	}
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	target := q * float64(total)
	lower, prevCum := 0.0, uint64(0)
	for i, b := range buckets {
		if float64(b.cum) >= target {
			if math.IsInf(b.le, 1) {
				return lower, true // beyond the last finite bound
			}
			span := float64(b.cum - prevCum)
			if span == 0 || i == 0 && b.le <= 0 {
				return b.le, true
			}
			return lower + (b.le-lower)*(target-float64(prevCum))/span, true
		}
		if !math.IsInf(b.le, 1) {
			lower, prevCum = b.le, b.cum
		}
	}
	return lower, true
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
