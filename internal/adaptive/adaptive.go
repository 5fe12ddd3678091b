// Package adaptive implements the Monitor–Assess–Respond control loop of
// the paper (Fig. 1) on top of the hybrid join engine.
//
// Every δadapt engine steps the controller activates:
//
//   - The monitor reads the observed result size O̅ₜ, the per-side
//     counts of recent approximate matches A_{t,W} (sliding windows fed
//     by match attribution, §3.3), and the scan progress.
//   - The assessor evaluates the predicates of Table 2: σ (binomial-tail
//     outlier test on the result size, §3.2), µᵢ (side i unlikely to be
//     currently perturbed) and πᵢ (side i unlikely to have ever been
//     perturbed).
//   - The responder maps the predicate vector to a target state of the
//     Fig. 4 machine through the transition rules ϕ₀..ϕ₃ (§3.5) and
//     enacts any change via Engine.SetState, which is safe because the
//     activation runs at a quiescent point.
//
// The loop exists once. The unexported loop type (loop.go) is the
// activation body — calibrate, Assess, update the π history, take the
// budget verdict, respond through the futility gate and the ϕ rules,
// record — and owns every piece of state that does not depend on where
// the counters come from. Three drivers supply what genuinely differs:
//
//   - Controller reads one engine's counters from its OnStep/OnMatch
//     hooks and enacts a switch with Engine.SetState on the spot; it is
//     the reference the parity harnesses hold the others to.
//   - ShardedController aggregates a partition-parallel join: counts
//     snapshotted at executor barriers, window events replayed at their
//     dispatch positions, switches broadcast to the shards.
//   - ProbeLoop runs a resident probe session, one step per probe, where
//     a switch is free and the reference is fully seen (p(n) = 1).
//
// Each hands activate an Observation, the state it is in and the
// modelled spend of the scan so far, and enacts the state it gets back.
// Every firing is recorded as one Activation (EnableTrace); the opt-in
// features are armed the same way on all three (EnableTrace,
// EnableCostBudget).
//
// Two deliberate deviations from the paper's formal notation, both
// required for the described behaviour to be realisable (see DESIGN.md):
//
//  1. πᵢ counts past assessments at which side i *appeared perturbed*
//     (Σ I(¬µᵢ) ≤ θpastpert). The paper's Table 2 literally sums I(µᵢ),
//     which would make a historically clean input fail its own
//     "significantly free of past perturbations" reading.
//  2. In state lex/rex no approximate operator runs, so the windows are
//     structurally empty and µ carries no information; the σ signal
//     alone must force the transition out of lex/rex ("the σ component
//     ... is specifically responsible for the transition out of
//     lex/rex"). The responder therefore fires ϕ₁ from lex/rex on σ
//     regardless of µ.
package adaptive

import "fmt"

// Params holds the thresholds of Table 3 (θsim lives in join.Config).
type Params struct {
	// W is the sliding-window size, in engine steps.
	W int
	// DeltaAdapt is the number of steps between control-loop
	// activations (δadapt).
	DeltaAdapt int
	// ThetaOut is the binomial-tail significance level θout for the
	// outlier predicate σ.
	ThetaOut float64
	// ThetaCurPert is the maximum in-window approximate-match rate
	// A_{t,W}/W for a side to be considered unperturbed (µ). The
	// paper's best setting "θcurpert = 2" is a count against W = 100;
	// as a rate that is 0.02.
	ThetaCurPert float64
	// ThetaPastPert is the maximum number of past assessments at which
	// a side may have appeared perturbed while still counting as
	// "significantly free of past perturbations" (π). Paper: 2–5.
	ThetaPastPert int

	// Estimator selects the result-size model behind σ. The default,
	// EstimatorParentChild, is the paper's §3.2 model and requires the
	// parent cardinality |R|. EstimatorCalibrated self-calibrates the
	// per-trial match rate from the first CalibrationActivations
	// control-loop firings (query-feedback estimation in the spirit of
	// Chen & Roussopoulos, the paper's ref. [6]) and needs no |R| —
	// at the price of assuming the calibration prefix is mostly
	// variant-free.
	Estimator EstimatorMode
	// CalibrationActivations is how many activations feed the
	// calibrated estimator before σ starts firing (default 5 via
	// DefaultParams; only used with EstimatorCalibrated).
	CalibrationActivations int

	// FutilityK enables the extension the paper leaves as future work
	// in §3.5: "reverting to exact join could also be motivated by
	// realizing that the approximate join does not help in increasing
	// the observed result size (e.g., because the estimate was simply
	// wrong)". With FutilityK = k > 0, spending k consecutive
	// activations in a non-exact state without a single new approximate
	// match reverts to lex/rex and suppresses the σ signal until it
	// clears on its own. 0 (default) disables the rule, matching the
	// paper's assessor.
	FutilityK int
}

// EstimatorMode selects the statistical model behind the σ predicate.
type EstimatorMode int

const (
	// EstimatorParentChild is the paper's model: expected result size
	// from a known parent cardinality (§3.2).
	EstimatorParentChild EstimatorMode = iota
	// EstimatorCalibrated learns the expected match rate from the run's
	// own early observations instead of requiring |R|.
	EstimatorCalibrated
)

// String names the estimator.
func (m EstimatorMode) String() string {
	switch m {
	case EstimatorParentChild:
		return "parent-child"
	case EstimatorCalibrated:
		return "calibrated"
	default:
		return fmt.Sprintf("EstimatorMode(%d)", int(m))
	}
}

// DefaultParams returns the best settings reported in §4.2: W = 100,
// δadapt = 100, θout = 0.05, θcurpert = 2/W, θpastpert = 3.
func DefaultParams() Params {
	return Params{
		W:                      100,
		DeltaAdapt:             100,
		ThetaOut:               0.05,
		ThetaCurPert:           0.02,
		ThetaPastPert:          3,
		CalibrationActivations: 5,
	}
}

// Validate reports the first invalid field, if any.
func (p Params) Validate() error {
	if p.W < 1 {
		return fmt.Errorf("adaptive: window size W=%d < 1", p.W)
	}
	if p.DeltaAdapt < 1 {
		return fmt.Errorf("adaptive: activation period δadapt=%d < 1", p.DeltaAdapt)
	}
	if p.ThetaOut <= 0 || p.ThetaOut >= 1 {
		return fmt.Errorf("adaptive: θout=%v outside (0,1)", p.ThetaOut)
	}
	if p.ThetaCurPert < 0 {
		return fmt.Errorf("adaptive: θcurpert=%v negative", p.ThetaCurPert)
	}
	if p.ThetaPastPert < 0 {
		return fmt.Errorf("adaptive: θpastpert=%d negative", p.ThetaPastPert)
	}
	if p.FutilityK < 0 {
		return fmt.Errorf("adaptive: futility threshold %d negative", p.FutilityK)
	}
	switch p.Estimator {
	case EstimatorParentChild:
	case EstimatorCalibrated:
		if p.CalibrationActivations < 1 {
			return fmt.Errorf("adaptive: calibrated estimator needs CalibrationActivations >= 1, got %d", p.CalibrationActivations)
		}
	default:
		return fmt.Errorf("adaptive: unknown estimator mode %d", int(p.Estimator))
	}
	return nil
}
