package adaptive

import (
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/pjoin"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/stream"
)

func shardedParams() Params {
	return Params{W: 20, DeltaAdapt: 10, ThetaOut: 0.05, ThetaCurPert: 0.05, ThetaPastPert: 100}
}

// runSharded executes a P-shard adaptive join and returns the
// controller, the executor stats and the matches.
func runSharded(t *testing.T, parent, child *relation.Relation, p Params, shards int) (*ShardedController, pjoin.Stats, []pjoin.Match) {
	t.Helper()
	ctl, err := NewSharded(shards, stream.Left, parent.Len(), p)
	if err != nil {
		t.Fatal(err)
	}
	ctl.EnableTrace()
	ex, err := pjoin.New(pjoin.Config{Join: join.Defaults(), Shards: shards, Controller: ctl},
		stream.FromRelation(parent), stream.FromRelation(child))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	var ms []pjoin.Match
	for {
		m, ok, err := ex.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ms = append(ms, m)
	}
	st := ex.Stats()
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	return ctl, st, ms
}

func TestShardedValidation(t *testing.T) {
	if _, err := NewSharded(0, stream.Left, 10, DefaultParams()); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewSharded(4, stream.Left, 0, DefaultParams()); err == nil {
		t.Error("zero parent size accepted")
	}
	if _, err := NewSharded(4, stream.Left, 10, Params{}); err == nil {
		t.Error("invalid params accepted")
	}
	p := DefaultParams()
	p.Estimator = EstimatorCalibrated
	if _, err := NewSharded(4, stream.Left, 0, p); err != nil {
		t.Errorf("calibrated estimator without parent size rejected: %v", err)
	}
}

func TestShardedNoVariantsStaysExact(t *testing.T) {
	parent, child := buildScenario(7, 300, 0, 0) // no variants
	ctl, st, _ := runSharded(t, parent, child, shardedParams(), 4)
	if st.Switches != 0 {
		t.Errorf("shards switched %d times on clean data", st.Switches)
	}
	if got := ctl.State(); got != join.LexRex {
		t.Errorf("broadcast state %v, want lex/rex", got)
	}
	for _, act := range ctl.Activations() {
		if act.Assessment.Sigma {
			t.Errorf("σ fired on clean data at step %d (tail %v)", act.Observation.Step, act.Assessment.Tail)
		}
	}
}

func TestShardedDetectsPerturbationAndRecovers(t *testing.T) {
	// The sequential controller's canonical scenario, run on 4 shards:
	// a dense variant burst early in the child. The aggregate deficit
	// test must fire, the broadcast must take every shard out of
	// lex/rex, and the result must land strictly between
	// the exact and approximate baselines.
	parent, child := buildScenario(11, 400, 40, 80)
	ctl, st, ms := runSharded(t, parent, child, shardedParams(), 4)

	if st.Switches == 0 {
		t.Fatal("no shard ever switched despite a 10% variant burst")
	}
	wentApprox := false
	returnedExact := false
	for _, act := range ctl.Activations() {
		if act.From == join.LexRex && act.To != join.LexRex {
			wentApprox = true
		}
		if wentApprox && act.To == join.LexRex && act.From != join.LexRex {
			returnedExact = true
		}
	}
	if !wentApprox {
		t.Error("no broadcast out of lex/rex recorded")
	}
	if !returnedExact {
		t.Error("never broadcast a return to lex/rex after the perturbation region")
	}

	exact := join.NestedLoopExact(parent, child)
	if len(ms) <= len(exact) {
		t.Errorf("sharded adaptive found %d matches, exact baseline %d — no gain", len(ms), len(exact))
	}
	approx, err := join.NestedLoopApprox(join.Defaults(), parent, child)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) > len(approx) {
		t.Errorf("sharded adaptive found %d matches, more than the approximate ceiling %d", len(ms), len(approx))
	}
}

func TestShardedAggregateObservation(t *testing.T) {
	// The aggregate monitor must observe global counters: after a full
	// run the last activation's scan progress equals the dispatched
	// totals.
	parent, child := buildScenario(13, 300, 50, 80)
	ctl, st, _ := runSharded(t, parent, child, shardedParams(), 4)
	acts := ctl.Activations()
	if len(acts) == 0 {
		t.Fatal("no activations recorded")
	}
	last := acts[len(acts)-1].Observation
	if last.ParentSeen > parent.Len() || last.ChildSeen > child.Len() {
		t.Errorf("aggregate observation saw (%d,%d) tuples, inputs only have (%d,%d)",
			last.ParentSeen, last.ChildSeen, parent.Len(), child.Len())
	}
	if st.Routed != st.Read {
		t.Errorf("shards stored %v tuples of %v read: want one stored copy per tuple", st.Routed, st.Read)
	}
	if last.Observed != st.Matches {
		// The final activation can precede the last few matches; it must
		// never exceed the total.
		if last.Observed > st.Matches {
			t.Errorf("aggregate observed %d matches, merger only delivered %d", last.Observed, st.Matches)
		}
	}
}

func TestShardedSingleShardDegenerate(t *testing.T) {
	// P=1 must behave like a (pipelined) sequential adaptive join: one
	// shard, aggregate loop, same completeness ordering.
	parent, child := buildScenario(11, 400, 40, 80)
	_, st, ms := runSharded(t, parent, child, shardedParams(), 1)
	if st.ProbeOffers != 0 {
		t.Errorf("single shard ran %d probe-only offers", st.ProbeOffers)
	}
	exact := join.NestedLoopExact(parent, child)
	if len(ms) <= len(exact) {
		t.Errorf("P=1 adaptive found %d matches, exact baseline %d — no gain", len(ms), len(exact))
	}
}

// runShardedBudget is runSharded with a cost budget armed.
func runShardedBudget(t *testing.T, parent, child *relation.Relation, p Params, shards int, budget float64) (*ShardedController, pjoin.Stats, []pjoin.Match) {
	t.Helper()
	ctl, err := NewSharded(shards, stream.Left, parent.Len(), p)
	if err != nil {
		t.Fatal(err)
	}
	ctl.EnableTrace()
	if err := ctl.EnableCostBudget(metrics.PaperWeights(), budget); err != nil {
		t.Fatal(err)
	}
	ex, err := pjoin.New(pjoin.Config{Join: join.Defaults(), Shards: shards, Controller: ctl},
		stream.FromRelation(parent), stream.FromRelation(child))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	var ms []pjoin.Match
	for {
		m, ok, err := ex.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ms = append(ms, m)
	}
	st := ex.Stats()
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	return ctl, st, ms
}

func TestShardedCostBudgetValidation(t *testing.T) {
	ctl, err := NewSharded(2, stream.Left, 10, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.EnableCostBudget(metrics.PaperWeights(), 0); err == nil {
		t.Error("zero budget accepted")
	}
	if err := ctl.EnableCostBudget(metrics.PaperWeights(), -1); err == nil {
		t.Error("negative budget accepted")
	}
	if err := ctl.EnableCostBudget(metrics.Weights{}, 100); err == nil {
		t.Error("invalid weights accepted")
	}
	if err := ctl.EnableCostBudget(metrics.PaperWeights(), 100); err != nil {
		t.Errorf("valid budget rejected: %v", err)
	}
}

// TestShardedBudgetTripsLikeSequential is the decision-parity check for
// the aggregated spend counter: over the same scenario and thresholds,
// the sharded controller's trace — every activation's observation,
// σ/µ verdicts, from/to states and forced overrides, budget pin
// included — must be identical to the sequential controller's, because
// the logical spend accrues on the same step clock.
func TestShardedBudgetTripsLikeSequential(t *testing.T) {
	parent, child := buildScenario(17, 500, 50, 200) // heavy perturbation
	const budget = 3000.0

	_, seqCtl := runBudgeted(t, parent, child, testParams(), budget)
	for _, shards := range []int{2, 4} {
		ctl, _, _ := runShardedBudget(t, parent, child, testParams(), shards, budget)
		seqActs, parActs := seqCtl.Activations(), ctl.Activations()
		if len(seqActs) != len(parActs) {
			t.Fatalf("P=%d: %d activations, sequential %d", shards, len(parActs), len(seqActs))
		}
		sawBudget := false
		for i := range seqActs {
			s, p := seqActs[i], parActs[i]
			if s.Observation != p.Observation {
				t.Errorf("P=%d activation %d: observation %+v, sequential %+v", shards, i, p.Observation, s.Observation)
			}
			if s.Assessment != p.Assessment {
				t.Errorf("P=%d activation %d: assessment %+v, sequential %+v", shards, i, p.Assessment, s.Assessment)
			}
			if s.From != p.From || s.To != p.To || s.Forced != p.Forced {
				t.Errorf("P=%d activation %d: decision %v->%v (%q), sequential %v->%v (%q)",
					shards, i, p.From, p.To, p.Forced, s.From, s.To, s.Forced)
			}
			if p.Forced == "budget" {
				sawBudget = true
			}
		}
		if !sawBudget {
			t.Fatalf("P=%d: budget never engaged", shards)
		}
		if got := ctl.State(); got != join.LexRex {
			t.Errorf("P=%d: final broadcast state %v, want lex/rex", shards, got)
		}
		if sp := ctl.Spend(); sp < budget {
			t.Errorf("P=%d: final spend %v below the budget it tripped", shards, sp)
		}
	}
}
