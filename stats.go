package adaptivelink

import (
	"adaptivelink/internal/adaptive"
	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
)

// Stats summarises a join execution.
type Stats struct {
	// Steps is the number of input tuples fully processed.
	Steps int
	// LeftRead/RightRead count tuples consumed per input.
	LeftRead  int
	RightRead int
	// Matches is the number of result pairs; Exact + Approx = Matches.
	Matches       int
	ExactMatches  int
	ApproxMatches int
	// Switches counts operator switches; CatchUpTuples the tuples
	// re-indexed by switch-time catch-ups.
	Switches      int
	CatchUpTuples int
	// StepsInState maps state name ("lex/rex", ...) to steps spent there.
	StepsInState map[string]int
	// TransitionsInto maps state name to the number of switches into it.
	TransitionsInto map[string]int
	// ModelledCost is the execution cost under the paper's normalised
	// weight model (one all-exact step = 1). On a parallel join it prices
	// the shards' storing steps — one per input tuple, as sequentially —
	// plus every shard's own switch transitions.
	ModelledCost float64

	// TuplesEvicted counts sliding-window evictions (payload releases,
	// exclusion from future probes). 0 unless RetainWindow is set.
	TuplesEvicted int
	// IndexEntriesDropped counts index entries (exact refs plus q-gram
	// postings) physically removed by window compaction; on a parallel
	// join each shard compacts its own slice on its own schedule.
	IndexEntriesDropped int
	// BudgetSpend is the modelled spend counter a CostBudget is
	// enforced against, in all-exact-step units. On the sequential path
	// it equals ModelledCost; on a parallel adaptive join it is the
	// aggregated sequential-equivalent spend as of the last barrier. 0
	// for parallel fixed-strategy joins (no controller, no spend clock).
	BudgetSpend float64

	// Parallelism is the shard count the join ran on (1 = sequential).
	Parallelism int
	// ShardSteps sums the per-shard engine step counters on a parallel
	// join: the storing steps. A tuple is stored in one shard only, so
	// ShardSteps = Steps once the join is drained; the probe-only offers
	// an approximately probing tuple makes to the other shards are not
	// steps and are counted separately in ProbeOffers. 0 on the
	// sequential path.
	ShardSteps int
	// ProbeOffers counts probe-only offers on a parallel join: an
	// approximately probing tuple is offered to each of the P-1 shards
	// that do not store it, which probe their slice of the opposite input
	// without storing. 0 on the sequential path.
	ProbeOffers int
}

// Stats returns a snapshot of the join's counters. For a parallel join
// everything but the read and match counts sums the shard engines — a
// tuple steps in its home shard only, so Steps, ShardSteps and the
// per-state accounting all add up to one step per input tuple — and the
// snapshot is fully consistent once the join is exhausted or closed;
// mid-run the sums cover finished shards only.
func (j *Join) Stats() Stats {
	var st join.Stats
	out := Stats{Parallelism: j.par}
	if j.pexec != nil {
		ps := j.pexec.Stats()
		st = ps.Stats
		out.ShardSteps = ps.Steps
		out.ProbeOffers = ps.ProbeOffers
		if j.sctl != nil {
			out.BudgetSpend = j.sctl.Spend()
		}
	} else {
		st = j.engine.Stats()
	}
	out.Steps = st.Steps
	out.LeftRead = st.Read[0]
	out.RightRead = st.Read[1]
	out.Matches = st.Matches
	out.ExactMatches = st.ExactMatches
	out.ApproxMatches = st.ApproxMatches
	out.Switches = st.Switches
	out.CatchUpTuples = st.CatchUpTuples
	out.TuplesEvicted = st.Evicted[0] + st.Evicted[1]
	out.IndexEntriesDropped = st.IndexEntriesDropped
	out.StepsInState = make(map[string]int, 4)
	out.TransitionsInto = make(map[string]int, 4)
	for _, s := range join.AllStates {
		out.StepsInState[s.String()] = st.StepsInState[s.Index()]
		out.TransitionsInto[s.String()] = st.TransitionsInto[s.Index()]
	}
	out.ModelledCost = metrics.Cost(st, metrics.PaperWeights()).Total
	if j.pexec == nil {
		// One engine: the spend the budget is enforced against IS the
		// modelled cost.
		out.BudgetSpend = out.ModelledCost
	}
	return out
}

// Activation is one recorded control-loop firing (TraceActivations).
type Activation struct {
	// Step is the loop's step clock at the activation: engine steps for
	// a Join, probes for a Session.
	Step int
	// Observed is the result size at activation; Expected the model's
	// expected result size at that step (p̂ · child tuples seen) — what
	// Observed is deficit-tested against; Tail its binomial tail
	// probability under the no-variants model.
	Observed int
	Expected float64
	Tail     float64
	// Sigma reports whether the deficit was significant.
	Sigma bool
	// From and To are the state names before and after responding; equal
	// strings mean no switch.
	From string
	To   string
	// Reason labels the respond outcome: "steady", "deficit",
	// "deficit-held", "window-clear", or the forced overrides "budget" /
	// "futility".
	Reason string
	// CaughtUp is the number of tuples the switch re-indexed.
	CaughtUp int
	// Spend is the modelled cost of the logical scan after this
	// activation, in all-exact-step units — the counter a CostBudget is
	// enforced against, this activation's own switch included.
	Spend float64
}

// publicActivations renders the control loop's one activation record as
// the public type — for Join and Session traces and, one step further,
// explain decisions. A nil trace stays nil.
func publicActivations(acts []adaptive.Activation) []Activation {
	if acts == nil {
		return nil
	}
	out := make([]Activation, len(acts))
	for i, a := range acts {
		out[i] = Activation{
			Step:     a.Observation.Step,
			Observed: a.Observation.Observed,
			Expected: a.Expected(),
			Tail:     a.Assessment.Tail,
			Sigma:    a.Assessment.Sigma,
			From:     a.From.String(),
			To:       a.To.String(),
			Reason:   a.Reason(),
			CaughtUp: a.CaughtUp,
			Spend:    a.Spend,
		}
	}
	return out
}

// Activations returns the recorded control-loop trace. It is nil unless
// Options.TraceActivations was set and the strategy is Adaptive. On a
// parallel join the trace holds the aggregate (sharded) controller's
// activations; CaughtUp is always 0 there, catch-up being accounted per
// shard in Stats.CatchUpTuples instead.
func (j *Join) Activations() []Activation {
	switch {
	case j.ctl != nil:
		return publicActivations(j.ctl.Activations())
	case j.sctl != nil:
		return publicActivations(j.sctl.Activations())
	}
	return nil
}
