package iterator

import (
	"errors"
	"testing"
)

func TestLifecycleHappyPath(t *testing.T) {
	var lc Lifecycle
	if lc.Phase() != PhaseClosed {
		t.Fatalf("initial phase %v", lc.Phase())
	}
	if err := lc.CheckOpen(); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := lc.CheckNext(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	lc.MarkExhausted()
	if lc.Phase() != PhaseExhausted {
		t.Error("not exhausted after MarkExhausted")
	}
	// Next after exhaustion is legal (keeps returning ok=false).
	if err := lc.CheckNext(); err != nil {
		t.Errorf("Next after exhaustion: %v", err)
	}
	if err := lc.CheckClose(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if lc.Phase() != PhaseDone {
		t.Errorf("final phase %v", lc.Phase())
	}
}

func TestLifecycleViolations(t *testing.T) {
	var lc Lifecycle
	if err := lc.CheckNext(); err == nil {
		t.Error("Next before Open allowed")
	}
	lc.CheckOpen()
	if err := lc.CheckOpen(); err == nil {
		t.Error("double Open allowed")
	}
	lc.CheckClose()
	if err := lc.CheckNext(); err == nil {
		t.Error("Next after Close allowed")
	}
	if err := lc.CheckClose(); err == nil {
		t.Error("double Close allowed")
	}
}

func TestLifecycleCloseWithoutOpen(t *testing.T) {
	var lc Lifecycle
	if err := lc.CheckClose(); err != nil {
		t.Errorf("Close without Open should be a no-op close, got %v", err)
	}
}

func TestMarkExhaustedOnlyFromOpen(t *testing.T) {
	var lc Lifecycle
	lc.MarkExhausted() // closed: no-op
	if lc.Phase() != PhaseClosed {
		t.Errorf("phase %v after MarkExhausted while closed", lc.Phase())
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{PhaseClosed: "closed", PhaseOpen: "open", PhaseExhausted: "exhausted", PhaseDone: "done"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if Phase(42).String() != "Phase(42)" {
		t.Errorf("unknown phase String() = %q", Phase(42).String())
	}
}

// sliceOp is a minimal conforming operator for Drain tests.
type sliceOp struct {
	Lifecycle
	vals []int
	pos  int
	fail bool
}

func (s *sliceOp) Open() error { return s.CheckOpen() }

func (s *sliceOp) Next() (int, bool, error) {
	if err := s.CheckNext(); err != nil {
		return 0, false, err
	}
	if s.fail && s.pos == 1 {
		return 0, false, errors.New("boom")
	}
	if s.pos >= len(s.vals) {
		s.MarkExhausted()
		return 0, false, nil
	}
	v := s.vals[s.pos]
	s.pos++
	return v, true, nil
}

func (s *sliceOp) Close() error { return s.CheckClose() }

func TestDrain(t *testing.T) {
	op := &sliceOp{vals: []int{1, 2, 3}}
	got, err := Drain[int](op, nil)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Drain = %v", got)
	}
	if op.Phase() != PhaseDone {
		t.Errorf("operator not closed: %v", op.Phase())
	}
}

func TestDrainPropagatesError(t *testing.T) {
	op := &sliceOp{vals: []int{1, 2, 3}, fail: true}
	got, err := Drain[int](op, nil)
	if err == nil {
		t.Fatal("Drain swallowed the error")
	}
	if len(got) != 1 {
		t.Errorf("partial results = %v, want the one pre-error value", got)
	}
}

func TestDrainAppendsToExisting(t *testing.T) {
	op := &sliceOp{vals: []int{2}}
	got, err := Drain[int](op, []int{1})
	if err != nil || len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Drain append = %v, err %v", got, err)
	}
}

func TestDrainSkipsOpenIfAlreadyOpen(t *testing.T) {
	op := &sliceOp{vals: []int{1}}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	got, err := Drain[int](op, nil)
	if err != nil || len(got) != 1 {
		t.Errorf("Drain on pre-opened op = %v, err %v", got, err)
	}
}
