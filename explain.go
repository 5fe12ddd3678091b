package adaptivelink

import "adaptivelink/internal/join"

// DecisionPoint is one control-loop activation in a key's decision
// trace: what the σ deficit test saw at that probe and why the
// responder kept or changed the session state.
type DecisionPoint struct {
	// Probe is the session probe count at the activation (the loop's
	// step clock).
	Probe int `json:"probe"`
	// ObservedHits is the observed result size O̅ₜ (probes with ≥1
	// match so far); ExpectedHits the §3.2 model's expectation at this
	// step — under the resident parent-child model p(n)=1, so it equals
	// the probe count.
	ObservedHits int     `json:"observed_hits"`
	ExpectedHits float64 `json:"expected_hits"`
	// Tail is the binomial tail probability of the observed deficit;
	// Sigma whether it fell to ThetaOut or below.
	Tail  float64 `json:"tail"`
	Sigma bool    `json:"sigma"`
	// From and To are the processor state names around the respond step.
	From string `json:"from"`
	To   string `json:"to"`
	// Reason labels the outcome: "steady", "deficit", "deficit-held",
	// "window-clear", "budget" or "futility".
	Reason string `json:"reason"`
	// Spend is the session's modelled cost after this activation, in
	// all-exact-step units.
	Spend float64 `json:"spend"`
}

// KeyDecision is the per-key decision trace Explain-mode sessions
// record: how the key was probed, what it returned, and every
// control-loop activation it triggered.
type KeyDecision struct {
	// Key is the probed key after normalization (what the engine saw).
	Key string `json:"key"`
	// Mode is the probe operator the key ran under, in the paper's
	// abbreviations ("ex" or "ap"); an escalated key ran exact first,
	// then approximately.
	Mode string `json:"mode"`
	// Hit reports whether the probe found any match; Matches how many.
	Hit     bool `json:"hit"`
	Matches int  `json:"matches"`
	// Escalated reports the per-probe escalation: the key missed under
	// exact matching, fired σ, and was re-run approximately.
	Escalated bool `json:"escalated"`
	// Events are the control-loop activations this probe triggered
	// (empty when the loop was not due or the strategy is fixed).
	Events []DecisionPoint `json:"events,omitempty"`
	// SpendAfter is the session's modelled cost after this key, in
	// all-exact-step units. The final key's SpendAfter equals
	// SessionStats.ModelledCost.
	SpendAfter float64 `json:"spend_after"`
}

// explainState accumulates the finished per-key decisions of an
// Explain-mode session and remembers how much of the loop's activation
// trace they have already been cut from.
type explainState struct {
	seen      int
	decisions []KeyDecision
}

// record appends the decision of the key the session just settled: how
// it was probed, what it finally returned, and the activations the loop
// has recorded since the previous key. It allocates per probe; sessions
// without Explain never reach it.
func (x *explainState) record(s *Session, key string, mode join.Mode, res []join.RefMatch, escalated bool) {
	d := KeyDecision{
		Key: key, Mode: mode.String(), Hit: len(res) > 0, Matches: len(res), Escalated: escalated,
		// The spend already includes any escalated re-probe and
		// transition weights, so this reconciles with
		// SessionStats.ModelledCost at every step.
		SpendAfter: s.spend(),
	}
	if s.loop != nil {
		acts := publicActivations(s.loop.Activations()[x.seen:])
		x.seen += len(acts)
		for _, a := range acts {
			d.Events = append(d.Events, DecisionPoint{
				Probe: a.Step, ObservedHits: a.Observed, ExpectedHits: a.Expected, Tail: a.Tail,
				Sigma: a.Sigma, From: a.From, To: a.To, Reason: a.Reason, Spend: a.Spend,
			})
		}
	}
	x.decisions = append(x.decisions, d)
}

// Decisions returns the per-key decision traces recorded so far, in
// probe order. Nil unless the session was opened with
// SessionOptions.Explain. The slice is live — it grows with further
// probes; callers retaining it across probes should copy it.
func (s *Session) Decisions() []KeyDecision {
	if s.explain == nil {
		return nil
	}
	return s.explain.decisions
}
