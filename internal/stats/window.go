package stats

import "fmt"

// SlidingWindow counts boolean events over the most recent W steps of a
// monotonically advancing step counter. The assessor maintains one per
// input side to evaluate A_{t,W}, the number of approximate matches seen
// in the interval [t-W, t] (§3.5).
//
// Steps are reported via Advance; events at the current step via Record.
// Multiple events may land on the same step (a single probe can produce
// several approximate matches).
type SlidingWindow struct {
	size   int
	counts []int // ring buffer of per-step event counts
	head   int   // ring index of the current step
	step   int   // current step number
	total  int   // sum of counts currently inside the window
}

// NewSlidingWindow creates a window covering w steps. It panics if w < 1.
func NewSlidingWindow(w int) *SlidingWindow {
	if w < 1 {
		panic(fmt.Sprintf("stats: sliding window size %d < 1", w))
	}
	return &SlidingWindow{size: w, counts: make([]int, w)}
}

// Size returns the window width W.
func (s *SlidingWindow) Size() int { return s.size }

// Step returns the current step number.
func (s *SlidingWindow) Step() int { return s.step }

// Advance moves the window forward to the next step, expiring the count
// that falls out of the interval.
func (s *SlidingWindow) Advance() {
	s.step++
	s.head = (s.head + 1) % s.size
	s.total -= s.counts[s.head]
	s.counts[s.head] = 0
}

// AdvanceTo advances until the current step equals target. It panics on
// attempts to move backwards, which would indicate a controller bug.
func (s *SlidingWindow) AdvanceTo(target int) {
	if target < s.step {
		panic(fmt.Sprintf("stats: AdvanceTo(%d) behind current step %d", target, s.step))
	}
	if target-s.step >= s.size {
		// Whole window expires: reset in O(W) instead of stepping one by one.
		for i := range s.counts {
			s.counts[i] = 0
		}
		s.total = 0
		s.head = 0
		s.step = target
		return
	}
	for s.step < target {
		s.Advance()
	}
}

// Record registers n events at the current step.
func (s *SlidingWindow) Record(n int) {
	if n < 0 {
		panic(fmt.Sprintf("stats: Record(%d) negative", n))
	}
	s.counts[s.head] += n
	s.total += n
}

// Count returns the number of events within the last W steps (A_{t,W}).
func (s *SlidingWindow) Count() int { return s.total }

// Reset clears all state.
func (s *SlidingWindow) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.head, s.step, s.total = 0, 0, 0
}

// Welford accumulates a running mean without storing samples (Welford's
// incremental update); the weight-calibration tool uses it to average
// per-step elapsed times across experiments.
type Welford struct {
	n    int
	mean float64
}

// Add folds one sample into the aggregate.
func (w *Welford) Add(x float64) {
	w.n++
	w.mean += (x - w.mean) / float64(w.n)
}

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }
