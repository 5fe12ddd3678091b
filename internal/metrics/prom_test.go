package metrics

import (
	"strings"
	"sync"
	"testing"
)

// render returns e's exposition text.
func render(t *testing.T, e *Exposition) string {
	t.Helper()
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.String()
}

func TestRegistryExposition(t *testing.T) {
	var e Exposition
	e.Family("app_temperature", "Current temperature.", "gauge").Sample("", 21.5)
	c := e.Family("app_requests_total", "Requests served.", "counter")
	c.Sample(`code="ok"`, 3)
	// Declaring a family again returns the same family.
	if again := e.Family("app_requests_total", "Requests served.", "counter"); again != c {
		t.Fatal("re-declared family is a new family")
	}
	c.Sample(`code="err"`, 1)
	e.Family("app_idle_total", "Declared, no series.", "counter")

	want := `# HELP app_idle_total Declared, no series.
# TYPE app_idle_total counter
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total{code="err"} 1
app_requests_total{code="ok"} 3
# HELP app_temperature Current temperature.
# TYPE app_temperature gauge
app_temperature 21.5
`
	if got := render(t, &e); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestValueConcurrentAdds(t *testing.T) {
	h := NewHistogram(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || h.Sum() != 4000 {
		t.Fatalf("concurrent observations: Count/Sum = %d/%v, want 8000/4000", h.Count(), h.Sum())
	}
}

func TestRegistryHistogram(t *testing.T) {
	h := NewHistogram(1, 4, 16)
	for _, x := range []float64{1, 1, 3, 9, 100} {
		h.Observe(x)
	}
	if h.Count() != 5 || h.Sum() != 114 {
		t.Fatalf("Count/Sum = %d/%v, want 5/114", h.Count(), h.Sum())
	}
	var e Exposition
	e.Histogram("batch_keys", "Keys per batch.", h)
	out := render(t, &e)
	for _, want := range []string{
		"# TYPE batch_keys histogram",
		`batch_keys_bucket{le="1"} 2`,
		`batch_keys_bucket{le="4"} 3`,
		`batch_keys_bucket{le="16"} 4`,
		`batch_keys_bucket{le="+Inf"} 5`,
		`batch_keys_sum 114`,
		`batch_keys_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHistogramBucketMismatchPanics(t *testing.T) {
	for _, bounds := range [][]float64{nil, {1, 3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) accepted", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}
