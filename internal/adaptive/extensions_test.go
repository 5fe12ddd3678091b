package adaptive

import (
	"testing"

	"adaptivelink/internal/iterator"
	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/stream"
)

// runBudgeted drives a traced sequential adaptive join, under a cost
// budget priced with the paper's weights when budget is positive.
func runBudgeted(t *testing.T, parent, child *relation.Relation, p Params, budget float64) (*join.Engine, *Controller) {
	t.Helper()
	e, err := join.New(join.Defaults(), stream.FromRelation(parent), stream.FromRelation(child), nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Attach(e, stream.Left, parent.Len(), p)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace()
	if budget > 0 {
		if err := c.EnableCostBudget(metrics.PaperWeights(), budget); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := iterator.Drain[join.Match](e, nil); err != nil {
		t.Fatal(err)
	}
	return e, c
}

func TestParamsValidateFutility(t *testing.T) {
	p := DefaultParams()
	p.FutilityK = -1
	if p.Validate() == nil {
		t.Error("negative FutilityK accepted")
	}
	p.FutilityK = 3
	if err := p.Validate(); err != nil {
		t.Errorf("valid FutilityK rejected: %v", err)
	}
}

// A wrong parent-size estimate makes σ fire although no variants exist;
// without the futility rule the engine wallows in lap/rap finding
// nothing. With it, the controller reverts to lex/rex and stays there.
func TestFutilityRevertOnWrongEstimate(t *testing.T) {
	parent, child := buildScenario(3, 400, 0, 0) // clean data
	e, err := join.New(join.Defaults(), stream.FromRelation(parent), stream.FromRelation(child), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.FutilityK = 3
	// Lie about the parent size: claim it is half the real table, so the
	// expected match probability doubles and the clean result looks
	// deficient.
	c, err := Attach(e, stream.Left, parent.Len()/2, p)
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace()
	if _, err := iterator.Drain[join.Match](e, nil); err != nil {
		t.Fatal(err)
	}

	var futilityReverts, postRevertApprox int
	reverted := false
	for _, a := range c.Activations() {
		if a.Forced == "futility" {
			futilityReverts++
			reverted = true
			if a.To != join.LexRex {
				t.Errorf("futility revert targeted %v", a.To)
			}
		} else if reverted && a.To != join.LexRex && a.From == join.LexRex {
			postRevertApprox++
		}
	}
	if futilityReverts == 0 {
		t.Fatal("futility rule never fired despite a fruitless approximate phase")
	}
	// σ suppression must prevent immediate re-entry: the wrong estimate
	// keeps σ on, so without suppression the engine would bounce back on
	// the very next activation.
	if postRevertApprox > futilityReverts {
		t.Errorf("engine re-entered approximate states %d times after %d futility reverts",
			postRevertApprox, futilityReverts)
	}
	if got := e.State(); got != join.LexRex {
		t.Errorf("final state %v, want lex/rex", got)
	}
}

func TestFutilityDisabledByDefault(t *testing.T) {
	parent, child := buildScenario(3, 300, 0, 0)
	e, err := join.New(join.Defaults(), stream.FromRelation(parent), stream.FromRelation(child), nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Attach(e, stream.Left, parent.Len()/2, testParams())
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTrace()
	iterator.Drain[join.Match](e, nil)
	for _, a := range c.Activations() {
		if a.Forced != "" {
			t.Fatalf("override %q fired with extensions disabled", a.Forced)
		}
	}
}

func TestCostBudgetPinsToExact(t *testing.T) {
	parent, child := buildScenario(17, 500, 50, 200) // heavy perturbation
	w := metrics.PaperWeights()
	// A budget of 3000 units: enough for some approximate work (about 40
	// lap/rap steps) but far below an unconstrained run.
	const budget = 3000.0
	e, c := runBudgeted(t, parent, child, testParams(), budget)

	sawBudget := false
	for _, a := range c.Activations() {
		if a.Forced == "budget" {
			sawBudget = true
			if a.To != join.LexRex {
				t.Errorf("budget override targeted %v", a.To)
			}
		}
	}
	if !sawBudget {
		t.Fatal("budget never engaged despite heavy perturbation")
	}
	// Final modelled cost can overshoot by one activation period of
	// approximate steps, the two boundary switches, and — by design —
	// the remaining scan at the exact join's unit rate ("cost grows only
	// at the exact rate" after the budget pins the state).
	cost := metrics.Cost(e.Stats(), w).Total
	steps := e.Stats().Steps
	slack := float64(testParams().DeltaAdapt)*w.Step[join.LapRap.Index()] +
		w.Transition[join.LexRex.Index()] + w.Transition[join.LapRap.Index()] +
		float64(steps)*w.Step[join.LexRex.Index()]
	if cost > budget+slack {
		t.Errorf("modelled cost %v exceeds budget %v + slack %v", cost, budget, slack)
	}
	if got := e.State(); got != join.LexRex {
		t.Errorf("final state %v, want lex/rex after budget exhaustion", got)
	}
}

func TestCostBudgetStillGainsCompleteness(t *testing.T) {
	parent, child := buildScenario(19, 500, 50, 150)
	w := metrics.PaperWeights()
	eBudget, _ := runBudgeted(t, parent, child, testParams(), 4000)
	eFree, _ := runBudgeted(t, parent, child, testParams(), 0)

	exact := len(join.NestedLoopExact(parent, child))
	budgetMatches := eBudget.Stats().Matches
	freeMatches := eFree.Stats().Matches
	if budgetMatches <= exact {
		t.Errorf("budgeted run gained nothing: %d vs exact %d", budgetMatches, exact)
	}
	if budgetMatches > freeMatches {
		t.Errorf("budgeted run (%d) outperformed unconstrained (%d)?", budgetMatches, freeMatches)
	}
	costB := metrics.Cost(eBudget.Stats(), w).Total
	costF := metrics.Cost(eFree.Stats(), w).Total
	if costB >= costF {
		t.Errorf("budgeted cost %v not below unconstrained %v", costB, costF)
	}
}

func TestCostBudgetValidation(t *testing.T) {
	parent := relation.FromKeys("L", "a")
	child := relation.FromKeys("R", "a")
	e, _ := join.New(join.Defaults(), stream.FromRelation(parent), stream.FromRelation(child), nil)
	c, err := Attach(e, stream.Left, 1, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableCostBudget(metrics.PaperWeights(), 0); err == nil {
		t.Error("zero budget accepted")
	}
	bad := metrics.PaperWeights()
	bad.Step[0] = 0
	if err := c.EnableCostBudget(bad, 100); err == nil {
		t.Error("invalid weights accepted")
	}
}
