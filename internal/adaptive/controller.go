package adaptive

import (
	"fmt"

	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/stream"
)

// Controller drives the MAR loop from one join engine's hooks: the
// engine's own counters are the monitor, its OnMatch feeds the
// perturbation windows, and a switch is enacted with Engine.SetState at
// the quiescent point OnStep runs in. Create it with Attach before
// opening the engine; the caller just pulls matches from the engine (or
// wraps it in the public API's operator). It is the reference the
// parity harnesses hold the sharded driver to.
type Controller struct {
	batchLoop
	lastActivation int
}

// Attach installs a controller on the engine. parentSide identifies the
// input expected to behave as the parent table R of the parent-child
// relationship (§3.2); parentSize is its expected cardinality |R|.
// Existing OnStep/OnMatch hooks on the engine are preserved and chained
// after the controller's. Call EnableTrace/EnableCostBudget before
// opening the engine.
func Attach(e *join.Engine, parentSide stream.Side, parentSize int, p Params) (*Controller, error) {
	if e == nil {
		return nil, fmt.Errorf("adaptive: nil engine")
	}
	b, err := newBatchLoop(parentSide, parentSize, p)
	if err != nil {
		return nil, err
	}
	c := &Controller{batchLoop: b}

	prevStep, prevMatch := e.OnStep, e.OnMatch
	e.OnMatch = func(m join.Match) {
		c.onMatch(m)
		if prevMatch != nil {
			prevMatch(m)
		}
	}
	e.OnStep = func(en *join.Engine) {
		c.onStep(en)
		if prevStep != nil {
			prevStep(en)
		}
	}
	return c, nil
}

// onMatch feeds the perturbation windows: every non-exact match is an
// "approximate match observed", attributed to one or both sides by the
// flag mechanism of §3.3.
func (c *Controller) onMatch(m join.Match) {
	if m.Exact {
		return
	}
	c.approxSeen++
	if m.Attribution.Blames(stream.Left) {
		c.win[stream.Left].Record(1)
	}
	if m.Attribution.Blames(stream.Right) {
		c.win[stream.Right].Record(1)
	}
}

// onStep advances the windows and, every δadapt steps, runs one MAR
// activation over the engine's counters — the engine's own accounting
// is the spend — enacting any switch on the spot: it executes at a
// quiescent point, so SetState is safe.
func (c *Controller) onStep(e *join.Engine) {
	step := e.Step()
	c.win[stream.Left].AdvanceTo(step)
	c.win[stream.Right].AdvanceTo(step)
	if step-c.lastActivation < c.params.DeltaAdapt {
		return
	}
	c.lastActivation = step
	st := e.Stats()
	act := c.activate(c.observation(step, st.Matches, st.Read), e.State(), metrics.Cost(st, c.weights).Total)
	if act.To == act.From {
		return
	}
	caught, err := e.SetState(act.To)
	if err != nil {
		panic(fmt.Sprintf("adaptive: switch to %v: %v", act.To, err))
	}
	if c.keepTrace {
		c.trace[len(c.trace)-1].CaughtUp = caught
	}
}
