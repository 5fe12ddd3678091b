package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one request share req; parent
// names the span one level up (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Keys   int    `json:"keys,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; end closes it. A span opened
// and never closed is a bug in the replay, not a measurement.
func (r *recorder) begin(name string, parent, req, keys int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Keys: keys, Start: now, End: now})
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the time
// its children cover. Children that overlap each other (fan-out) are
// counted once. The levels of one request are replayed in successive
// passes, so a child's interval need not lie inside its parent's: what
// is subtracted is the length of the union of the children's own
// intervals.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionLength(children[s.ID])
	}
	return out
}

// unionLength is the total time covered by the spans' intervals.
func unionLength(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var total int64
	lo, hi := sorted[0].Start, sorted[0].End
	for _, s := range sorted[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
			continue
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// sumByName totals a per-span quantity over the spans called name.
func sumByName(spans []span, name string, of func(span) int64) int64 {
	var total int64
	for _, s := range spans {
		if s.Name == name {
			total += of(s)
		}
	}
	return total
}
