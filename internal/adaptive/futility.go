package adaptive

import "adaptivelink/internal/join"

// futilityGate holds the state of the §3.5 futility extension
// (Params.FutilityK) and runs the responder around the ϕ rules; the
// loop's activate is its only caller.
type futilityGate struct {
	approxSeenPrev int
	streak         int
	suppress       bool
}

// respond applies the futility bookkeeping, the caller's budget verdict
// and the ϕ rules, in the responder's canonical order: streak
// accounting first, then the budget pin (which preempts everything),
// then the futility revert and σ suppression, then Decide; a decision
// that changes the state restarts the streak. approxSeen is the running
// count of non-exact matches; overBudget is false for loops without a
// cost budget.
func (f *futilityGate) respond(p Params, from join.State, a Assessment, approxSeen int, overBudget bool) (to join.State, forced string) {
	if p.FutilityK > 0 {
		// A streak of activations in a non-exact state during which
		// approximate matching produced nothing.
		if from != join.LexRex && approxSeen == f.approxSeenPrev {
			f.streak++
		} else {
			f.streak = 0
		}
		f.approxSeenPrev = approxSeen
		// σ stays suppressed after a futility revert until the deficit
		// estimate clears on its own.
		if !a.Sigma {
			f.suppress = false
		}
	}
	switch {
	case overBudget:
		to, forced = join.LexRex, "budget"
	case p.FutilityK > 0 && f.streak >= p.FutilityK && from != join.LexRex:
		f.suppress = true
		to, forced = join.LexRex, "futility"
	default:
		if f.suppress {
			a.Sigma = false
		}
		to = Decide(from, a)
	}
	if to != from {
		f.streak = 0
	}
	return to, forced
}
