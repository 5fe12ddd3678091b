// Package exp is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§4): the eight test cases of Fig. 6
// (four perturbation patterns × {variants in child only, variants in
// both inputs}), the state-time and cost breakdowns of Figs. 7–8, the
// per-operation cost table (Table 1), the parameter-tuning exploration
// of §4.2 and the empirical weight calibration of §4.3.
package exp

import (
	"fmt"
	"time"

	"adaptivelink/internal/adaptive"
	"adaptivelink/internal/datagen"
	"adaptivelink/internal/iterator"
	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/pjoin"
	"adaptivelink/internal/stream"
)

// TestCase is one column of Fig. 6.
type TestCase struct {
	// ID is the reporting label, e.g. "uniform/child-only".
	ID   string
	Spec datagen.Spec
}

// PaperTestCases returns the eight test cases of §4.1 at the given
// scale: for each Fig. 5 pattern, one case with variants only in the
// child and one with variants in both inputs.
func PaperTestCases(seed int64, parentSize, childSize int) []TestCase {
	var cases []TestCase
	for _, p := range datagen.AllPatterns {
		for _, both := range []bool{false, true} {
			spec := datagen.Defaults(p, both)
			spec.Seed = seed + int64(len(cases))
			spec.ParentSize = parentSize
			spec.ChildSize = childSize
			cases = append(cases, TestCase{ID: spec.Name(), Spec: spec})
		}
	}
	return cases
}

// RunConfig bundles the knobs of one experiment run.
type RunConfig struct {
	// Join configures all three runs of a case; the baselines pin only
	// its initial state, so Join.RetainWindow windows r and R too.
	Join    join.Config
	Params  adaptive.Params
	Weights metrics.Weights
	// Trace records controller activations on the adaptive run.
	Trace bool
	// Parallelism shards the adaptive run across this many concurrent
	// engines with an aggregate control loop (internal/pjoin); 0 or 1
	// keeps the paper's sequential engine. The baselines always run
	// sequentially — they anchor r and R. Join.RetainWindow and
	// CostBudget compose with any Parallelism: windowed shards evict
	// against the global scan clock and the budget is enforced on the
	// aggregated spend counter, so the adaptive result is identical to
	// the sequential engine's.
	Parallelism int
	// CostBudget, when positive, pins the adaptive run to exact
	// matching once the modelled spend (under Weights) reaches it — the
	// §4.4 user-controlled trade-off. 0 disables it.
	CostBudget float64
}

// arm applies the run's trace and budget settings to either adaptive
// driver.
func (rc RunConfig) arm(ctl interface {
	EnableTrace()
	EnableCostBudget(metrics.Weights, float64) error
}) error {
	if rc.Trace {
		ctl.EnableTrace()
	}
	if rc.CostBudget > 0 {
		return ctl.EnableCostBudget(rc.Weights, rc.CostBudget)
	}
	return nil
}

// DefaultRunConfig returns the paper's best settings (§4.2) with the
// paper's measured weights.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Join:    join.Defaults(),
		Params:  adaptive.DefaultParams(),
		Weights: metrics.PaperWeights(),
	}
}

// Result is the outcome of one test case: the three runs (exact
// baseline, approximate baseline, adaptive) and the §4.3 metrics.
type Result struct {
	Case TestCase

	// Result sizes: r (all-exact), R (all-approximate), RAbs (adaptive).
	R     int
	RApx  int
	RAbs  int
	Steps int

	// AdaptiveStats is the adaptive engine's accounting.
	AdaptiveStats join.Stats
	// GainCost holds g_rel, c_rel and e.
	GainCost metrics.GainCost
	// Breakdown itemises the adaptive run's modelled cost.
	Breakdown metrics.CostBreakdown

	// Wall-clock times of the three runs on this host (informational;
	// the modelled cost uses Weights).
	WallExact    time.Duration
	WallApprox   time.Duration
	WallAdaptive time.Duration

	// Activations is the controller trace (with RunConfig.Trace).
	Activations []adaptive.Activation
}

// RunCase generates the dataset for a test case and executes the three
// runs over identical inputs with the canonical alternating scan
// (parent = left input): the two baselines, then the adaptive run.
func RunCase(tc TestCase, rc RunConfig) (*Result, error) {
	b, err := runBaselines(tc, rc.Join)
	if err != nil {
		return nil, err
	}
	return b.adaptive(rc)
}

// baselines is the per-case half of a run: a test case's dataset and
// its two pinned runs, r (exact throughout; cost baseline c) and R
// (approximate throughout; cost baseline C). Both run the case's join
// config with only the initial state pinned, so they share q, θ,
// measure and window with every adaptive run measured against them.
type baselines struct {
	ds  *datagen.Dataset
	res Result // Case, R, RApx, Steps and the two baseline wall times
}

func runBaselines(tc TestCase, cfg join.Config) (*baselines, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds, err := datagen.Generate(tc.Spec)
	if err != nil {
		return nil, fmt.Errorf("exp: generate %s: %w", tc.ID, err)
	}
	b := &baselines{ds: ds, res: Result{Case: tc, Steps: ds.Parent.Len() + ds.Child.Len()}}
	if b.res.R, b.res.WallExact, err = b.pinned(cfg, join.LexRex); err != nil {
		return nil, fmt.Errorf("exp: exact run %s: %w", tc.ID, err)
	}
	if b.res.RApx, b.res.WallApprox, err = b.pinned(cfg, join.LapRap); err != nil {
		return nil, fmt.Errorf("exp: approximate run %s: %w", tc.ID, err)
	}
	return b, nil
}

// pinned runs the sequential engine fixed in state st throughout.
func (b *baselines) pinned(cfg join.Config, st join.State) (int, time.Duration, error) {
	cfg.Initial = st
	e, err := join.New(cfg, stream.FromRelation(b.ds.Parent), stream.FromRelation(b.ds.Child), nil)
	if err != nil {
		return 0, 0, err
	}
	return drainCount[join.Match](e)
}

// adaptive is the per-configuration half of a run: the adaptive run
// over the case's dataset — the sequential engine with its controller,
// or the partition-parallel executor with the aggregate control loop
// when Parallelism > 1 — and its §4.3 metrics against the baselines.
// rc.Join must be the config the baselines ran.
func (b *baselines) adaptive(rc RunConfig) (*Result, error) {
	if err := rc.Params.Validate(); err != nil {
		return nil, err
	}
	if err := rc.Weights.Validate(); err != nil {
		return nil, err
	}
	res := b.res
	parent, child := stream.FromRelation(b.ds.Parent), stream.FromRelation(b.ds.Child)
	if rc.Parallelism > 1 {
		ctl, err := adaptive.NewSharded(rc.Parallelism, stream.Left, b.ds.Parent.Len(), rc.Params)
		if err != nil {
			return nil, err
		}
		if err := rc.arm(ctl); err != nil {
			return nil, err
		}
		ex, err := pjoin.New(pjoin.Config{Join: rc.Join, Shards: rc.Parallelism, Controller: ctl}, parent, child)
		if err != nil {
			return nil, err
		}
		if res.RAbs, res.WallAdaptive, err = drainCount[pjoin.Match](ex); err != nil {
			return nil, fmt.Errorf("exp: parallel adaptive run %s: %w", res.Case.ID, err)
		}
		// The shard engines' summed accounting: a tuple is stored
		// (stepped) in its home shard only, so Steps equals the scan
		// length; what the §4.4 cost checks see beyond the sequential
		// run is each shard paying its own switch transitions.
		res.AdaptiveStats = ex.Stats().Stats
		res.Activations = ctl.Activations()
	} else {
		e, err := join.New(rc.Join, parent, child, nil)
		if err != nil {
			return nil, err
		}
		ctl, err := adaptive.Attach(e, stream.Left, b.ds.Parent.Len(), rc.Params)
		if err != nil {
			return nil, err
		}
		if err := rc.arm(ctl); err != nil {
			return nil, err
		}
		if res.RAbs, res.WallAdaptive, err = drainCount[join.Match](e); err != nil {
			return nil, fmt.Errorf("exp: adaptive run %s: %w", res.Case.ID, err)
		}
		res.AdaptiveStats = e.Stats()
		res.Activations = ctl.Activations()
	}
	res.GainCost = metrics.Evaluate(res.AdaptiveStats, res.RAbs, res.R, res.RApx, res.Steps, rc.Weights)
	res.Breakdown = metrics.Cost(res.AdaptiveStats, rc.Weights)
	return &res, nil
}

// RunAll executes every test case and returns the results in order.
func RunAll(cases []TestCase, rc RunConfig) ([]*Result, error) {
	results := make([]*Result, 0, len(cases))
	for _, tc := range cases {
		r, err := RunCase(tc, rc)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// drainCount pulls an operator (sequential engine or parallel
// executor) to exhaustion, counting matches without retaining them, and
// returns the count with the wall time from Open to Close.
func drainCount[T any](op iterator.Operator[T]) (int, time.Duration, error) {
	start := time.Now()
	if err := op.Open(); err != nil {
		return 0, 0, err
	}
	n := 0
	for {
		_, ok, err := op.Next()
		if err != nil {
			op.Close()
			return n, 0, err
		}
		if !ok {
			break
		}
		n++
	}
	err := op.Close()
	return n, time.Since(start), err
}
