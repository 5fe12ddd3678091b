package cli

import (
	"math"
	"strings"
	"testing"

	"adaptivelink/internal/metrics"
)

const histExposition = `# HELP adaptivelink_link_latency_seconds Admitted link request duration.
# TYPE adaptivelink_link_latency_seconds histogram
adaptivelink_link_latency_seconds_bucket{le="0.001"} 10
adaptivelink_link_latency_seconds_bucket{le="0.01"} 50
adaptivelink_link_latency_seconds_bucket{le="0.1"} 99
adaptivelink_link_latency_seconds_bucket{le="+Inf"} 100
adaptivelink_link_latency_seconds_sum 1.5
adaptivelink_link_latency_seconds_count 100
`

func TestHistQuantile(t *testing.T) {
	// p50: target 50 of 100 lands exactly on the 0.01 bucket boundary.
	p50, ok := histQuantile("", histExposition, "adaptivelink_link_latency_seconds", 0.50)
	if !ok || math.Abs(p50-0.01) > 1e-12 {
		t.Fatalf("p50 = %v ok=%v, want 0.01", p50, ok)
	}
	// p90: target 90, inside (0.01, 0.1] holding counts 51..99 — linear
	// interpolation: 0.01 + 0.09*(90-50)/49.
	p90, ok := histQuantile("", histExposition, "adaptivelink_link_latency_seconds", 0.90)
	want := 0.01 + 0.09*40/49
	if !ok || math.Abs(p90-want) > 1e-12 {
		t.Fatalf("p90 = %v ok=%v, want %v", p90, ok, want)
	}
	// p999: the sample sits in +Inf; the histogram cannot resolve beyond
	// its last finite bound.
	p999, ok := histQuantile("", histExposition, "adaptivelink_link_latency_seconds", 0.999)
	if !ok || p999 != 0.1 {
		t.Fatalf("p999 = %v ok=%v, want 0.1 (last finite bound)", p999, ok)
	}
}

func TestHistQuantileAbsentOrEmpty(t *testing.T) {
	if _, ok := histQuantile("", histExposition, "nonexistent_series", 0.5); ok {
		t.Fatal("quantile of an absent series reported ok")
	}
	empty := strings.ReplaceAll(histExposition, " 10\n", " 0\n")
	empty = strings.ReplaceAll(empty, " 50\n", " 0\n")
	empty = strings.ReplaceAll(empty, " 99\n", " 0\n")
	empty = strings.ReplaceAll(empty, " 100\n", " 0\n")
	if _, ok := histQuantile("", empty, "adaptivelink_link_latency_seconds", 0.5); ok {
		t.Fatal("quantile of an empty histogram reported ok")
	}
}

// TestHistQuantileAgainstRegistry pins the parser to the exact output
// of the metrics exposition it scrapes in production.
func TestHistQuantileAgainstRegistry(t *testing.T) {
	h := metrics.NewHistogram(0.001, 0.01, 0.1, 1)
	for i := 0; i < 90; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	var e metrics.Exposition
	e.Histogram("test_latency_seconds", "help.", h)
	var sb strings.Builder
	if _, err := e.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	p99, ok := histQuantile("", sb.String(), "test_latency_seconds", 0.99)
	if !ok {
		t.Fatalf("no quantile parsed from:\n%s", sb.String())
	}
	// 99th of 100 samples lands in the (0.01, 0.1] bucket.
	if p99 <= 0.01 || p99 > 0.1 {
		t.Fatalf("p99 = %v, want within (0.01, 0.1]", p99)
	}
}

// TestHistQuantileSinceBaseline pins the crosscheck to the requests a
// run sent: the server histogram is cumulative, and one slow request
// linked before the run would otherwise be the p99 of a short run. The
// quantile comes from the samples gained since the baseline scrape; a
// baseline above the later counts (a restart between the scrapes) is
// ignored.
func TestHistQuantileSinceBaseline(t *testing.T) {
	h := metrics.NewHistogram(0.001, 0.01, 0.1, 1)
	scrape := func() string {
		var e metrics.Exposition
		e.Histogram("test_latency_seconds", "help.", h)
		var sb strings.Builder
		if _, err := e.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for i := 0; i < 4; i++ {
		h.Observe(0.0005)
	}
	h.Observe(0.5) // the slow batch linked before the run
	baseline := scrape()
	for i := 0; i < 60; i++ {
		h.Observe(0.005)
	}
	after := scrape()
	if p99, ok := histQuantile("", after, "test_latency_seconds", 0.99); !ok || p99 <= 0.1 {
		t.Fatalf("cumulative p99 = %v ok=%v: the polluted baseline should own it", p99, ok)
	}
	p99, ok := histQuantile(baseline, after, "test_latency_seconds", 0.99)
	if !ok || p99 <= 0.001 || p99 > 0.01 {
		t.Fatalf("p99 since the baseline = %v ok=%v, want within (0.001, 0.01]", p99, ok)
	}
	if _, ok := histQuantile(after, after, "test_latency_seconds", 0.99); ok {
		t.Fatal("quantile of a histogram that gained nothing reported ok")
	}
	if p99, ok := histQuantile(after, baseline, "test_latency_seconds", 0.99); !ok || p99 <= 0.1 {
		t.Fatalf("after a reset, p99 = %v ok=%v, want the later scrape's own", p99, ok)
	}
}
