package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.resolved()
	if cfg.SampleEvery != DefaultSampleEvery {
		t.Errorf("SampleEvery = %d, want %d", cfg.SampleEvery, DefaultSampleEvery)
	}
	if cfg.SlowThreshold != DefaultSlowThreshold {
		t.Errorf("SlowThreshold = %v, want %v", cfg.SlowThreshold, DefaultSlowThreshold)
	}
	if cfg.capacity != DefaultCapacity || cfg.SlowCapacity != DefaultSlowCapacity {
		t.Errorf("capacities = %d/%d, want %d/%d", cfg.capacity, cfg.SlowCapacity, DefaultCapacity, DefaultSlowCapacity)
	}
	// Negative values survive (they mean "disabled").
	off := Config{SampleEvery: -1, SlowThreshold: -1}.resolved()
	if off.SampleEvery != -1 || off.SlowThreshold != -1 {
		t.Errorf("disabled knobs rewritten: %+v", off)
	}
}

func TestNewIDUnique(t *testing.T) {
	tr := NewTracer(Config{})
	a, b := tr.NewID(), tr.NewID()
	if a == b {
		t.Fatalf("NewID returned duplicate %q", a)
	}
	if !strings.Contains(a, "-") {
		t.Errorf("id %q missing prefix separator", a)
	}
}

func TestSamplingCadence(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 4})
	var sampled int
	for i := 0; i < 16; i++ {
		if tr.Begin("/v1/link", tr.NewID(), false) != nil {
			sampled++
		}
	}
	if sampled != 4 {
		t.Errorf("sampled %d of 16 with SampleEvery=4, want 4", sampled)
	}
	// The very first request must be sampled (cadence starts at 1, not N).
	tr2 := NewTracer(Config{SampleEvery: 100})
	if tr2.Begin("/v1/link", "x", false) == nil {
		t.Error("first request not sampled with SampleEvery=100")
	}
}

func TestSamplingEveryRequest(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	for i := 0; i < 5; i++ {
		if tr.Begin("/v1/link", "x", false) == nil {
			t.Fatalf("request %d not sampled with SampleEvery=1", i)
		}
	}
}

func TestSamplingDisabled(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: -1})
	for i := 0; i < 8; i++ {
		if tr.Begin("/v1/link", "x", false) != nil {
			t.Fatal("sampled with SampleEvery=-1")
		}
	}
	// Force overrides the disabled sampler.
	if tr.Begin("/v1/link", "x", true) == nil {
		t.Error("force=true did not begin a trace")
	}
}

func TestTraceSpansAndRetention(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, SlowThreshold: -1})
	id := tr.NewID()
	tt := tr.Begin("/v1/link", id, false)
	tt.SetTarget("bench", 42)
	start := time.Now().Add(-3 * time.Millisecond)
	tt.AddSpanDur("queue", start, 2*time.Millisecond)
	tt.AddSpanDur("probe", start.Add(2*time.Millisecond), time.Millisecond)
	if slow := tr.End(tt, id, "/v1/link", 200, 3*time.Millisecond); slow {
		t.Error("slow=true with slow capture disabled")
	}
	got := tr.Find(id)
	if got == nil {
		t.Fatal("Find did not return the recorded trace")
	}
	if got.Index != "bench" || got.Keys != 42 || got.Status != 200 {
		t.Errorf("trace fields = %q/%d/%d", got.Index, got.Keys, got.Status)
	}
	if len(got.Spans) != 2 || got.Spans[0].Name != "queue" || got.Spans[1].Name != "probe" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if got.Spans[0].DurMillis < 1.9 || got.Spans[0].DurMillis > 2.1 {
		t.Errorf("queue span duration = %v ms, want ~2", got.Spans[0].DurMillis)
	}
	recent := tr.Recent()
	if len(recent) != 1 || recent[0].ID != id {
		t.Errorf("Recent() = %d traces", len(recent))
	}
	if tr.SampledSeen() != 1 {
		t.Errorf("SampledSeen = %d", tr.SampledSeen())
	}
}

func TestNilTraceMethodsSafe(t *testing.T) {
	var tt *Trace
	tt.SetTarget("x", 1)
	tt.AddSpan("a", time.Now())
	tt.AddSpanDur("b", time.Now(), time.Millisecond)
	tr := NewTracer(Config{SlowThreshold: -1})
	if slow := tr.End(nil, "id", "/x", 200, time.Second); slow {
		t.Error("nil trace + disabled slowlog reported slow")
	}
}

func TestSlowCaptureWithoutSampling(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: -1, SlowThreshold: 10 * time.Millisecond})
	if slow := tr.End(nil, "req-1", "/v1/link", 200, 50*time.Millisecond); !slow {
		t.Fatal("50ms request not flagged slow at 10ms threshold")
	}
	if slow := tr.End(nil, "req-2", "/v1/link", 200, 5*time.Millisecond); slow {
		t.Fatal("5ms request flagged slow at 10ms threshold")
	}
	slowTraces := tr.Slow()
	if len(slowTraces) != 1 || slowTraces[0].ID != "req-1" {
		t.Fatalf("Slow() = %+v", slowTraces)
	}
	if slowTraces[0].Sampled {
		t.Error("unsampled slow trace marked Sampled")
	}
	if len(tr.Recent()) != 0 {
		t.Error("unsampled slow trace leaked into recent ring")
	}
	if tr.SlowSeen() != 1 {
		t.Errorf("SlowSeen = %d, want 1", tr.SlowSeen())
	}
	// Find falls through to the slow ring.
	if tr.Find("req-1") == nil {
		t.Error("Find did not reach the slow ring")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, capacity: 4, SlowThreshold: -1})
	for i := 0; i < 10; i++ {
		id := tr.NewID()
		tt := tr.Begin("/v1/link", id, false)
		tr.End(tt, id, "/v1/link", 200, time.Millisecond)
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("Recent() kept %d, want capacity 4", len(recent))
	}
	// Newest first: ids end 000010, 000009, 000008, 000007.
	for i := 1; i < len(recent); i++ {
		if recent[i-1].ID <= recent[i].ID {
			t.Errorf("not newest-first: %q before %q", recent[i-1].ID, recent[i].ID)
		}
	}
}

func TestRingConcurrency(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, capacity: 8, SlowThreshold: 0})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.NewID()
				tt := tr.Begin("/v1/link", id, false)
				tt.AddSpanDur("probe", time.Now(), time.Millisecond)
				tr.End(tt, id, "/v1/link", 200, time.Millisecond)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, tc := range tr.Recent() {
				_ = tc.ID
			}
			tr.Find("nope")
		}
	}()
	wg.Wait()
	<-done
	if got := tr.SampledSeen(); got != 800 {
		t.Errorf("SampledSeen = %d, want 800", got)
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil || RequestID(ctx) != "" {
		t.Fatal("empty context returned values")
	}
	tt := &Trace{ID: "abc"}
	ctx = WithTrace(WithRequestID(ctx, "abc"), tt)
	if TraceFrom(ctx) != tt {
		t.Error("TraceFrom mismatch")
	}
	if RequestID(ctx) != "abc" {
		t.Error("RequestID mismatch")
	}
}
