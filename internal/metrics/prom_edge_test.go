package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestHistogramInfBucketRendering pins the exposition details a scraper
// (and linkbench's quantile parser) depends on: cumulative buckets, an
// explicit +Inf bucket equal to _count, and overflow samples landing
// only in +Inf.
func TestHistogramInfBucketRendering(t *testing.T) {
	h := NewHistogram(0.1, 1)
	h.Observe(0.05) // first bucket
	h.Observe(0.5)  // second
	h.Observe(99)   // overflow: +Inf only

	var e Exposition
	e.Histogram("edge_seconds", "help.", h)
	text := render(t, &e)
	for _, want := range []string{
		`edge_seconds_bucket{le="0.1"} 1`,
		`edge_seconds_bucket{le="1"} 2`,
		`edge_seconds_bucket{le="+Inf"} 3`,
		`edge_seconds_sum 99.55`,
		`edge_seconds_count 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
}

// TestRegistryConcurrency renders expositions of shared histograms while
// many goroutines observe into them; run under -race it checks that
// rendering reads the histograms' counters safely.
func TestRegistryConcurrency(t *testing.T) {
	hs := []*Histogram{NewHistogram(0.1, 1), NewHistogram(0.1, 1)}
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				hs[(w+i)%len(hs)].Observe(float64(i) / 100)
				if i%50 == 25 {
					var e Exposition
					e.Histogram("conc_a_seconds", "help.", hs[0])
					e.Histogram("conc_b_seconds", "help.", hs[1])
					e.Family("conc_total", "help.", "counter").Sample(`w="x"`, float64(i))
					var sb strings.Builder
					if _, err := e.WriteTo(&sb); err != nil {
						t.Errorf("WriteTo: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := hs[0].Count() + hs[1].Count(); got != workers*iters {
		t.Fatalf("observations = %d, want %d", got, workers*iters)
	}
}
