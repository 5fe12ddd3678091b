package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Exposition is one scrape of the linkage service's /metrics endpoint
// in the Prometheus text exposition format 0.0.4, built from the values
// read at scrape time and rendered once: families sorted by name, the
// series of a family by label text. Nothing in it outlives the scrape,
// so a series is exported exactly while its source exists. The zero
// value is ready to use; it is not safe for concurrent use.
type Exposition struct {
	families map[string]*Family
}

// Family is one metric family of an Exposition: its HELP and TYPE lines
// and the series added to it. A declared family renders its HELP and
// TYPE lines even when it holds no series.
type Family struct {
	name, help, kind string
	series           []sample
	hist             *Histogram
}

type sample struct {
	labels string
	value  float64
}

// Family declares the family name with its help text and kind
// ("counter" or "gauge") and returns it; declaring a name again returns
// the family declared first.
func (e *Exposition) Family(name, help, kind string) *Family {
	if f, ok := e.families[name]; ok {
		return f
	}
	if e.families == nil {
		e.families = make(map[string]*Family)
	}
	f := &Family{name: name, help: help, kind: kind}
	e.families[name] = f
	return f
}

// Sample adds one series to the family. labels is the rendered
// Prometheus label set without braces, e.g. `index="foo",kind="exact"`
// (nothing is escaped); empty labels mean an unlabelled series.
func (f *Family) Sample(labels string, v float64) {
	f.series = append(f.series, sample{labels, v})
}

// Histogram adds the unlabelled histogram family name, rendered from
// h's counts as they are when WriteTo runs.
func (e *Exposition) Histogram(name, help string, h *Histogram) {
	e.Family(name, help, "histogram").hist = h
}

// WriteTo renders every family, families and series in sorted order for
// deterministic scrapes.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	names := make([]string, 0, len(e.families))
	for name := range e.families {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := e.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		if f.hist != nil {
			f.hist.write(&b, f.name)
		}
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		for _, s := range f.series {
			if s.labels == "" {
				fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(s.value))
			} else {
				fmt.Fprintf(&b, "%s{%s} %s\n", f.name, s.labels, formatValue(s.value))
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Histogram is a fixed-bucket histogram: lock-free Observe on
// atomically updated per-bucket counters, rendered in the Prometheus
// cumulative _bucket/_sum/_count form. The linkage service uses it for
// link latency, queue-wait and batch-size distributions.
type Histogram struct {
	bounds  []float64       // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64 // len(bounds)+1, last is the overflow bucket
	sumBits atomic.Uint64   // float64 bits of the sum of samples
	total   atomic.Uint64
}

// NewHistogram returns an empty histogram over the ascending upper
// bounds (the +Inf bucket is implicit).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 || !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("metrics: histogram wants ascending non-empty bounds, got %v", bounds))
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			break
		}
	}
	h.total.Add(1)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(b *strings.Builder, name string) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", name, formatValue(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", name, formatValue(h.Sum()), name, cum)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
