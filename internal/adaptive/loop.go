package adaptive

import (
	"fmt"

	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/stats"
	"adaptivelink/internal/stream"
)

// Activation is the record of one control-loop firing — the only one:
// experiment reports, the public Activations() traces, `adaptivejoin
// -trace/-explain` and the per-key explain decisions of a resident
// session are all views of it.
type Activation struct {
	Observation Observation
	Assessment  Assessment
	From        join.State
	To          join.State
	// CaughtUp is the number of tuples the switch-time index catch-up
	// inserted (0 for self-transitions, and always 0 outside the
	// sequential Controller: shards catch up as the broadcast lands and
	// a resident session has nothing to catch up).
	CaughtUp int
	// Forced explains a decision that overrode the ϕ rules: "" (none),
	// "budget" (cost budget exhausted, pinned to lex/rex) or "futility"
	// (approximate matching produced nothing, reverted to lex/rex).
	Forced string
	// Spend is the modelled cost of the logical scan after this
	// activation, in all-exact-step units under the loop's weights (the
	// paper's unless a cost budget supplied others): every step so far
	// at its state's weight plus every switch's transition weight, this
	// activation's own switch included.
	Spend float64
}

// Expected is the §3.2 model's expected result size at the activation
// (p̂ · child tuples seen) — what Observation.Observed is tested against.
func (a Activation) Expected() float64 {
	return a.Assessment.P * float64(a.Observation.ChildSeen)
}

// Reason labels the respond outcome:
//
//	"budget"       — cost budget pinned the state (forced)
//	"futility"     — futility gate overrode an escalation (forced)
//	"deficit"      — σ fired and the state moved
//	"deficit-held" — σ fired but the transition rules kept the state
//	"window-clear" — windows emptied and the state moved back
//	"steady"       — no deficit, no movement
func (a Activation) Reason() string {
	switch {
	case a.Forced != "":
		return a.Forced
	case a.From == a.To && a.Assessment.Sigma:
		return "deficit-held"
	case a.From == a.To:
		return "steady"
	case a.Assessment.Sigma:
		return "deficit"
	default:
		return "window-clear"
	}
}

// loop is the one Monitor–Assess–Respond activation body under the
// three drivers (Controller, ShardedController, ProbeLoop). It owns
// everything an activation reads or writes that does not depend on
// where the counters come from: the thresholds, the π history, the
// futility and calibration state, the budget and the trace. A driver
// supplies the monitor's raw counters, the state it is in and what the
// scan has cost so far; activate answers with the state to be in.
type loop struct {
	params Params
	// past counts, per side, the assessments that judged it currently
	// perturbed (the history feeding π).
	past [2]int
	// approxSeen counts every non-exact match so far; drivers bump it
	// as matches arrive. Only the futility rule reads it.
	approxSeen int
	fut        futilityGate
	cal        calibrator
	// weights price Activation.Spend; budget, when positive, is the
	// spend at which the responder pins lex/rex.
	weights   metrics.Weights
	budget    float64
	trace     []Activation
	keepTrace bool
}

// newLoop validates the thresholds; the loop prices spend under the
// paper's weights until EnableCostBudget supplies others.
func newLoop(p Params) (loop, error) {
	if err := p.Validate(); err != nil {
		return loop{}, err
	}
	return loop{params: p, weights: metrics.PaperWeights()}, nil
}

// Params returns the loop's thresholds.
func (l *loop) Params() Params { return l.params }

// EnableTrace records every activation; retrieve them with Activations.
// Traces grow with the run, so they default off. Call before the run
// starts.
func (l *loop) EnableTrace() { l.keepTrace = true }

// Activations returns the recorded trace (nil unless EnableTrace).
func (l *loop) Activations() []Activation { return l.trace }

// EnableCostBudget implements the user-controlled trade-off the paper's
// conclusions call for (§4.4: "the algorithm may be tuned, possibly
// under user control, for a target gain ... while keeping the marginal
// cost over the exact join baseline within a predictable limit"). Once
// the modelled spend under the given weights reaches budget (one
// all-exact step = 1), the responder pins lex/rex: completeness stops
// improving but cost grows only at the exact join's unit rate. Call
// before the run starts.
func (l *loop) EnableCostBudget(w metrics.Weights, budget float64) error {
	if err := w.Validate(); err != nil {
		return fmt.Errorf("adaptive: cost budget: %w", err)
	}
	if budget <= 0 {
		return fmt.Errorf("adaptive: cost budget %v must be positive", budget)
	}
	l.weights, l.budget = w, budget
	return nil
}

// activate runs assess → respond once over the monitor's observation
// (the π history and the calibrated-estimator fields are filled in
// here), from the driver's current state, with spend the modelled cost
// of the scan up to and including this step. It returns the activation
// — appended to the trace when tracing — whose To the driver enacts
// and whose Spend includes the transition if To differs from From.
// Nothing here allocates unless the trace is on.
func (l *loop) activate(obs Observation, from join.State, spend float64) Activation {
	obs.PastPerturbedLeft, obs.PastPerturbedRight = l.past[stream.Left], l.past[stream.Right]
	l.cal.observe(l.params, &obs)
	a, err := Assess(l.params, obs)
	if err != nil {
		// Thresholds and sizes were validated at construction; an error
		// here is a programming bug, not a data condition.
		panic(fmt.Sprintf("adaptive: assess: %v", err))
	}
	if !a.MuLeft {
		l.past[stream.Left]++
	}
	if !a.MuRight {
		l.past[stream.Right]++
	}
	to, forced := l.fut.respond(l.params, from, a, l.approxSeen, l.budget > 0 && spend >= l.budget)
	if to != from {
		spend += l.weights.Transition[to.Index()]
	}
	act := Activation{Observation: obs, Assessment: a, From: from, To: to, Forced: forced, Spend: spend}
	if l.keepTrace {
		l.trace = append(l.trace, act)
	}
	return act
}

// batchLoop is what the two batch-join drivers share beyond the loop:
// which input plays the parent table R of the §3.2 parent–child model,
// its expected cardinality |R|, and the per-side perturbation windows
// A_{t,W} fed by match attribution (§3.3).
type batchLoop struct {
	loop
	parentSide stream.Side
	parentSize int
	win        [2]*stats.SlidingWindow
}

func newBatchLoop(parentSide stream.Side, parentSize int, p Params) (batchLoop, error) {
	l, err := newLoop(p)
	if err != nil {
		return batchLoop{}, err
	}
	if parentSize <= 0 && p.Estimator != EstimatorCalibrated {
		return batchLoop{}, fmt.Errorf("adaptive: parent size %d must be positive (or use EstimatorCalibrated)", parentSize)
	}
	b := batchLoop{loop: l, parentSide: parentSide, parentSize: parentSize}
	b.win[stream.Left] = stats.NewSlidingWindow(p.W)
	b.win[stream.Right] = stats.NewSlidingWindow(p.W)
	return b, nil
}

// observation is the monitor's reading at a consistent cut of the scan:
// step tuples read (read per side) and observed matches computed.
func (b *batchLoop) observation(step, observed int, read [2]int) Observation {
	return Observation{
		Step:        step,
		Observed:    observed,
		ChildSeen:   read[b.parentSide.Other()],
		ParentSeen:  read[b.parentSide],
		ParentSize:  b.parentSize,
		WindowLeft:  b.win[stream.Left].Count(),
		WindowRight: b.win[stream.Right].Count(),
	}
}
