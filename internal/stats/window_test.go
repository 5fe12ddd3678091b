package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSlidingWindowBasic(t *testing.T) {
	w := NewSlidingWindow(3)
	if w.Count() != 0 || w.Size() != 3 || w.Step() != 0 {
		t.Fatalf("fresh window: count=%d size=%d step=%d", w.Count(), w.Size(), w.Step())
	}
	w.Record(2)
	if w.Count() != 2 {
		t.Errorf("after Record(2): %d", w.Count())
	}
	w.Advance() // step 1
	w.Record(1)
	w.Advance() // step 2
	w.Record(1)
	if w.Count() != 4 {
		t.Errorf("window over steps {0,1,2} = %d, want 4", w.Count())
	}
	w.Advance() // step 3: step 0's events (2) must expire... window covers steps {1,2,3}
	if w.Count() != 2 {
		t.Errorf("after expiry: %d, want 2", w.Count())
	}
	w.Advance()
	w.Advance() // steps {3,4,5}: all recorded events expired
	if w.Count() != 0 {
		t.Errorf("all expired: %d, want 0", w.Count())
	}
}

func TestSlidingWindowAdvanceTo(t *testing.T) {
	w := NewSlidingWindow(5)
	w.Record(3)
	w.AdvanceTo(2)
	if w.Step() != 2 || w.Count() != 3 {
		t.Errorf("AdvanceTo(2): step=%d count=%d", w.Step(), w.Count())
	}
	w.AdvanceTo(2) // no-op
	if w.Step() != 2 {
		t.Errorf("AdvanceTo same step moved to %d", w.Step())
	}
	// Jump past the entire window: everything expires via the fast path.
	w.AdvanceTo(100)
	if w.Step() != 100 || w.Count() != 0 {
		t.Errorf("AdvanceTo(100): step=%d count=%d", w.Step(), w.Count())
	}
}

func TestSlidingWindowAdvanceToBackwardsPanics(t *testing.T) {
	w := NewSlidingWindow(3)
	w.AdvanceTo(5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on backwards AdvanceTo")
		}
	}()
	w.AdvanceTo(4)
}

func TestSlidingWindowRecordNegativePanics(t *testing.T) {
	w := NewSlidingWindow(3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative Record")
		}
	}()
	w.Record(-1)
}

func TestNewSlidingWindowPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size 0")
		}
	}()
	NewSlidingWindow(0)
}

func TestSlidingWindowReset(t *testing.T) {
	w := NewSlidingWindow(3)
	w.Record(5)
	w.Advance()
	w.Reset()
	if w.Count() != 0 || w.Step() != 0 {
		t.Errorf("after Reset: count=%d step=%d", w.Count(), w.Step())
	}
}

// Property: the window count always equals a brute-force recount of
// events within the last W steps, under arbitrary advance/record
// interleavings.
func TestSlidingWindowMatchesBruteForceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const W = 7
		w := NewSlidingWindow(W)
		events := map[int]int{} // step -> count
		step := 0
		for _, op := range ops {
			if op%3 == 0 {
				w.Advance()
				step++
			} else {
				n := int(op % 4)
				w.Record(n)
				events[step] += n
			}
			want := 0
			for s, c := range events {
				if s > step-W { // window covers (step-W, step]
					want += c
				}
			}
			if w.Count() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 {
		t.Error("zero-value Welford not zeroed")
	}
	samples := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, s := range samples {
		w.Add(s)
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
}

// Property: Welford agrees with the naive sum-then-divide mean.
func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, r := range raw {
			w.Add(float64(r))
			sum += float64(r)
		}
		return math.Abs(w.Mean()-sum/float64(len(raw))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
