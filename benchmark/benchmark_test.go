package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{220, 0.95, 209, true},   // 11 beyond
		{219, 0.95, 209, true},   // ceil(208.05)=209 → 10 beyond
		{200, 0.95, 190, true},   // exactly 10 beyond
		{199, 0.95, 190, false},  // 9 beyond
		{21, 0.50, 11, true},     // 10 beyond the median
		{20, 0.50, 10, true},     // 10 beyond
		{19, 0.50, 10, false},    // 9 beyond
		{1000, 0.99, 990, true},  // 10 beyond
		{999, 0.99, 990, false},  // 9 beyond
		{1, 0.95, 1, false},      // a single sample
		{0, 0.95, 0, false},      // none
		{100, 0.999, 100, false}, // the maximum has nothing beyond it
	} {
		v, ok := percentile(seq(tc.n), tc.p)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, v, ok, tc.want, tc.ok)
		}
	}
}

func TestMedianAndSpreads(t *testing.T) {
	rates := []float64{104, 96, 100, 250, 98} // one segment hit by noise
	if got := median(rates); got != 100 {
		t.Errorf("median of segment rates = %v, want 100", got)
	}
	if got := median([]float64{1, 3}); got != 2 {
		t.Errorf("median of two = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	if got := rangeSpread(rates); math.Abs(got-1.54) > 1e-9 {
		t.Errorf("rangeSpread = %v, want 1.54", got)
	}
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	got, ok := quartileSpread(ten)
	if !ok || math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, %v; want 1.0", got, ok)
	}
	// statistics.quantiles([1, 2], n=4) is [0.75, 1.5, 2.25].
	if got, ok := quartileSpread([]float64{1, 2}); !ok || math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1, 2) = %v, %v; want 1", got, ok)
	}
	if _, ok := quartileSpread([]float64{7}); ok {
		t.Error("quartileSpread of one value reported a spread")
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "handler", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "link", Start: 200, End: 270}, // a later pass: outside the parent's interval
		{ID: 3, Parent: 2, Name: "resident", Start: 300, End: 320},
		{ID: 4, Parent: 2, Name: "resident", Start: 310, End: 340}, // overlaps 3: fan-out counts once
		{ID: 5, Parent: 2, Name: "resident", Start: 400, End: 410},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 30, 2: 70 - (40 + 10), 3: 20, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	var total int64
	for _, s := range spans {
		if s.Name != "resident" {
			total += self[s.ID]
		}
	}
	// The chain telescopes: selves plus the leaves' coverage is the root.
	if total+unionLength(spans[2:]) != spans[0].dur() {
		t.Errorf("self times do not add up to the root: %d + %d != %d", total, unionLength(spans[2:]), spans[0].dur())
	}
	if got := sumByName(spans, "resident", span.dur); got != 60 {
		t.Errorf("sumByName = %d, want 60", got)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("outer", 0, 7, 64)
	child := rec.begin("inner", root, 7, 64)
	time.Sleep(time.Millisecond)
	rec.end(child)
	rec.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Parent != back[0].ID || back[1].Req != 7 || back[1].dur() < int64(time.Millisecond) {
		t.Errorf("span file does not round-trip: %+v", back)
	}
	if self := selfTimes(back); self[root] < 0 || self[root] > back[0].dur() {
		t.Errorf("root self time %d outside [0, %d]", self[root], back[0].dur())
	}
}

func TestPrometheusDelta(t *testing.T) {
	const before = `# HELP adaptivelink_cluster_node_requests_total Node requests.
# TYPE adaptivelink_cluster_node_requests_total counter
adaptivelink_cluster_node_requests_total{node="http://127.0.0.1:1",outcome="ok"} 10
adaptivelink_cluster_node_requests_total{node="http://127.0.0.1:1",outcome="error"} 1
adaptivelink_cluster_node_requests_total{node="http://127.0.0.1:2",outcome="ok"} 5
adaptivelink_link_queue_wait_seconds_bucket{le="0.001"} 3
adaptivelink_link_queue_wait_seconds_sum 0.5
adaptivelink_link_queue_wait_seconds_count 4
adaptivelink_gc_pause_seconds_total 1.5e-05
adaptivelink_build_info{go_version="go1.24.0",version="(devel) x"} 1
garbage line without a number
`
	after := strings.NewReplacer(
		`outcome="ok"} 10`, `outcome="ok"} 25`,
		`outcome="ok"} 5`, `outcome="ok"} 6`,
		`_sum 0.5`, `_sum 0.75`,
		`_count 4`, `_count 9`,
	).Replace(before) + `adaptivelink_cluster_hints_total{outcome="queued"} 2` + "\n"
	b, a := parseExposition(before), parseExposition(after)
	const nodeReqs = "adaptivelink_cluster_node_requests_total"
	if got := delta(b, a, nodeReqs, `outcome="ok"`); got != 16 {
		t.Errorf("ok node requests delta = %v, want 16", got)
	}
	if got := delta(b, a, nodeReqs, `outcome="ok"`, `node="http://127.0.0.1:2"`); got != 1 {
		t.Errorf("one node's delta = %v, want 1", got)
	}
	if got := delta(b, a, nodeReqs, `outcome="error"`); got != 0 {
		t.Errorf("error delta = %v, want 0", got)
	}
	if got := delta(b, a, "adaptivelink_link_queue_wait_seconds_sum") / delta(b, a, "adaptivelink_link_queue_wait_seconds_count"); got != 0.05 {
		t.Errorf("mean queue wait = %v, want 0.05", got)
	}
	if got := delta(b, a, "adaptivelink_cluster_hints_total", `outcome="queued"`); got != 2 {
		t.Errorf("a series born between scrapes counts from zero: got %v, want 2", got)
	}
	if got := b.sum("adaptivelink_gc_pause_seconds_total"); got != 1.5e-05 {
		t.Errorf("exponent value = %v", got)
	}
	if got := b.sum("adaptivelink_build_info"); got != 1 {
		t.Errorf("label value holding a space: got %v, want 1", got)
	}
	// A family name that is a prefix of another must not swallow it.
	if got := b.sum("adaptivelink_link_queue_wait_seconds"); got != 0 {
		t.Errorf("prefix family matched %v", got)
	}
}

func TestSchedulesAreSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := buildSchedule(w, 7, 40, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildSchedule(w, 7, 40, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildSchedule(w, 8, 40, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		flat := func(s *schedule) []byte {
			var buf bytes.Buffer
			buf.Write(s.createBody)
			buf.Write(s.probe)
			for _, l := range s.links {
				buf.Write(l.body)
				buf.WriteString(strings.Join(l.truth, "|"))
			}
			for _, u := range s.upserts {
				buf.Write(u.body)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(flat(a), flat(b)) {
			t.Errorf("%s: the same seed generated different schedules", w.name)
		}
		if bytes.Equal(flat(a), flat(c)) {
			t.Errorf("%s: different seeds generated the same schedule", w.name)
		}
		if len(a.links) == 0 || len(a.upserts) != 40 {
			t.Errorf("%s: %d link requests, %d upsert batches", w.name, len(a.links), len(a.upserts))
		}
		// Half of every batch is new keys, no key twice in a batch, and a
		// new key never collides with a resident one.
		seen := map[string]bool{}
		for _, p := range a.parents {
			seen[p.Key] = true
		}
		for i, u := range a.upserts {
			fresh, inBatch := 0, map[string]bool{}
			for _, tu := range u.tuples {
				if inBatch[tu.Key] {
					t.Fatalf("%s: batch %d repeats key %q", w.name, i, tu.Key)
				}
				inBatch[tu.Key] = true
				if !seen[tu.Key] {
					fresh++
					seen[tu.Key] = true
				}
			}
			if len(u.tuples) != upsertBatch || fresh != upsertBatch/2 {
				t.Fatalf("%s: batch %d has %d tuples, %d new", w.name, i, len(u.tuples), fresh)
			}
		}
	}
}

func TestSpreadCoversTheCycle(t *testing.T) {
	links := make([]linkReq, 10)
	for i := range links {
		links[i].keys = []string{string(rune('a' + i))}
	}
	got := spread(links, 5)
	for i, want := range []string{"a", "c", "e", "g", "i"} {
		if got[i].keys[0] != want {
			t.Errorf("spread[%d] = %q, want %q", i, got[i].keys[0], want)
		}
	}
	if len(spread(links, 50)) != 10 {
		t.Error("spread invented requests")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, "lower", 0.10, "unchanged"},
		{"slower latency", steady, []float64{120, 121, 119, 120, 120}, "lower", 0.10, "REGRESSED"},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 80}, "higher", 0.10, "REGRESSED"},
		{"higher throughput", steady, []float64{120, 121, 119, 120, 120}, "higher", 0.10, "improved"},
		{"noisy", steady, []float64{60, 140, 100, 70, 130}, "lower", 0.10, "unresolved"},
		{"one set", []float64{100}, []float64{100}, "lower", 0.10, "unresolved (needs 2 sets a side)"},
		{"no bound, same", steady, steady, "lower", -1, "within the spread"},
		{"no bound, slower", steady, []float64{120, 121, 119, 120, 120}, "lower", -1, "worse than the spread"},
		{"no bound, faster", steady, []float64{80, 81, 79, 80, 80}, "lower", -1, "better than the spread"},
	} {
		if _, _, got := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in step, inside the limits the harness sets.
func TestManifestMatchesTables(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) || len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d end-to-end/per-layer/workloads, the tables %d/%d/%d",
			len(m.EndToEnd), len(m.PerLayer), len(m.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	sawSetup := false
	for i, d := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s (%s), table has %s (%s)", i, got.Name, got.Unit, d.name, d.unit)
		}
		if got.Bound <= 0 || got.Bound > 0.25 || (got.Better != "lower" && got.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", got.Name, got.Bound, got.Better)
		}
		sawSetup = sawSetup || (got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	for i, d := range perLayer {
		if got := m.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s (%s), table has %s (%s)", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
	for i, w := range workloads {
		if got := m.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %q/%q does not match the table, or its why is over 200 characters", i, got.Name, w.name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload end to end and traced, at
// a fiftieth of the size, against real daemons.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	bin, err := buildDaemon(root, out)
	if err != nil {
		t.Fatal(err)
	}
	e := env{bin: bin, outDir: out, log: io.Discard, scale: 0.02}
	defer live.closeAll()
	for _, w := range workloads {
		o, err := runEndToEnd(e, w, 5, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w.name, o.Correct, o.Failed, o.Attempted, o.errs)
		}
		for _, d := range measured {
			if s, ok := o.Metrics[d.name]; !ok || s.Value <= 0 || s.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, d.name, s)
			}
		}
		o, err = runLedger(e, w, 5, 0.25)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !o.Correct {
			t.Errorf("%s traced: %d of %d failed, missing %v: %v", w.name, o.Failed, o.Attempted, o.Metrics.missing(ledger), o.errs)
		}
		if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
	left, _ := filepath.Glob(filepath.Join(out, "run-*"))
	if len(left) != 0 {
		t.Errorf("scratch dirs left behind: %v", left)
	}
}

func TestContractLineShape(t *testing.T) {
	o := &outcome{Correct: true, Attempted: 3, Metrics: metricSet{}}
	for _, d := range endToEnd {
		o.set(d.name, d.unit, 1.5, 1)
	}
	o.set("not_in_the_manifest", "x", 1, 1)
	var buf bytes.Buffer
	printContractLine(&buf, o, false)
	var line map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, want %d", len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s = %v, want exactly value and unit", name, m)
		}
	}
}
