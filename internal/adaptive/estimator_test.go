package adaptive

import (
	"testing"

	"adaptivelink/internal/iterator"
	"adaptivelink/internal/join"
	"adaptivelink/internal/stream"
)

func calibratedParams() Params {
	p := testParams()
	p.Estimator = EstimatorCalibrated
	p.CalibrationActivations = 4
	return p
}

func TestEstimatorModeString(t *testing.T) {
	if EstimatorParentChild.String() != "parent-child" ||
		EstimatorCalibrated.String() != "calibrated" ||
		EstimatorMode(9).String() != "EstimatorMode(9)" {
		t.Error("EstimatorMode strings wrong")
	}
}

func TestParamsValidateEstimator(t *testing.T) {
	p := testParams()
	p.Estimator = EstimatorMode(7)
	if p.Validate() == nil {
		t.Error("unknown estimator accepted")
	}
	p = testParams()
	p.Estimator = EstimatorCalibrated
	p.CalibrationActivations = 0
	if p.Validate() == nil {
		t.Error("calibrated estimator with no calibration window accepted")
	}
}

func TestAssessCalibratedNeedsNoParentSize(t *testing.T) {
	p := calibratedParams()
	o := obsBase()
	o.ParentSize = 0 // would fail the parent-child model
	o.CalibratedKappa = 0.001
	o.Observed = 10 // expected 100*100*0.001 = 10
	a, err := Assess(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sigma {
		t.Errorf("on-expectation observation flagged: %+v", a)
	}
	o.Observed = 0
	a, _ = Assess(p, o)
	if !a.Sigma {
		t.Errorf("zero matches against calibrated expectation not flagged: %+v", a)
	}
}

func TestAssessCalibratedWhileLearning(t *testing.T) {
	p := calibratedParams()
	o := obsBase()
	o.ParentSize = 0
	o.CalibratedKappa = 0 // still calibrating
	o.Observed = 0
	a, err := Assess(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sigma || a.Tail != 1 {
		t.Errorf("calibrating phase produced evidence: %+v", a)
	}
}

func TestAttachCalibratedWithoutParentSize(t *testing.T) {
	parent, child := buildScenario(3, 100, 0, 0)
	e, _ := join.New(join.Defaults(), stream.FromRelation(parent), stream.FromRelation(child), nil)
	if _, err := Attach(e, stream.Left, 0, calibratedParams()); err != nil {
		t.Fatalf("calibrated mode rejected parentSize=0: %v", err)
	}
	e2, _ := join.New(join.Defaults(), stream.FromRelation(parent), stream.FromRelation(child), nil)
	if _, err := Attach(e2, stream.Left, 0, testParams()); err == nil {
		t.Fatal("parent-child mode accepted parentSize=0")
	}
}

func TestCalibratedCleanDataStaysExact(t *testing.T) {
	parent, child := buildScenario(41, 500, 0, 0)
	e, _ := join.New(join.Defaults(), stream.FromRelation(parent), stream.FromRelation(child), nil)
	c, err := Attach(e, stream.Left, 0, calibratedParams())
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace()
	iterator.Drain[join.Match](e, nil)
	if e.Stats().Switches != 0 {
		t.Errorf("calibrated controller switched %d times on clean data", e.Stats().Switches)
	}
	// Calibration must have concluded (κ̂ learned) at some point.
	calibrated := false
	for _, a := range c.Activations() {
		if a.Observation.CalibratedKappa > 0 {
			calibrated = true
		}
	}
	if !calibrated {
		t.Error("κ̂ never learned on clean data")
	}
}

func TestCalibratedDetectsVariantBurst(t *testing.T) {
	// Variants well after the calibration prefix: the calibrated model
	// must detect the deficit and recover matches, all without |R|.
	parent, child := buildScenario(43, 500, 200, 300)
	e, _ := join.New(join.Defaults(), stream.FromRelation(parent), stream.FromRelation(child), nil)
	if _, err := Attach(e, stream.Left, 0, calibratedParams()); err != nil {
		t.Fatal(err)
	}
	ms, err := iterator.Drain[join.Match](e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Switches == 0 {
		t.Fatal("calibrated controller never reacted to a 20% burst")
	}
	exact := join.NestedLoopExact(parent, child)
	if len(ms) <= len(exact) {
		t.Errorf("no completeness gain: %d vs exact %d", len(ms), len(exact))
	}
}

func TestCalibratedComparableToParentChild(t *testing.T) {
	// With the same data, the calibrated estimator should recover a
	// broadly similar number of matches as the oracle-|R| model.
	parent, child := buildScenario(47, 600, 250, 380)
	run := func(p Params, size int) int {
		e, _ := join.New(join.Defaults(), stream.FromRelation(parent), stream.FromRelation(child), nil)
		if _, err := Attach(e, stream.Left, size, p); err != nil {
			t.Fatal(err)
		}
		ms, err := iterator.Drain[join.Match](e, nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(ms)
	}
	exact := len(join.NestedLoopExact(parent, child))
	pc := run(testParams(), parent.Len())
	cal := run(calibratedParams(), 0)
	if cal <= exact {
		t.Errorf("calibrated gained nothing: %d vs exact %d (parent-child got %d)", cal, exact, pc)
	}
	// Within 60% of the parent-child model's recovered gain.
	if float64(cal-exact) < 0.4*float64(pc-exact) {
		t.Errorf("calibrated recovery %d far below parent-child %d (exact %d)", cal, pc, exact)
	}
}
