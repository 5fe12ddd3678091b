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
// (parent = left input).
func RunCase(tc TestCase, rc RunConfig) (*Result, error) {
	if err := rc.Join.Validate(); err != nil {
		return nil, err
	}
	if err := rc.Params.Validate(); err != nil {
		return nil, err
	}
	if err := rc.Weights.Validate(); err != nil {
		return nil, err
	}
	ds, err := datagen.Generate(tc.Spec)
	if err != nil {
		return nil, fmt.Errorf("exp: generate %s: %w", tc.ID, err)
	}
	res := &Result{Case: tc, Steps: ds.Parent.Len() + ds.Child.Len()}

	// All-exact baseline: result size r, cost baseline c.
	{
		e, err := join.NewSHJoin(stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		n, err := drainCount[join.Match](e)
		if err != nil {
			return nil, fmt.Errorf("exp: exact run %s: %w", tc.ID, err)
		}
		res.WallExact = time.Since(start)
		res.R = n
	}

	// All-approximate baseline: result size R, cost baseline C.
	{
		e, err := join.NewSSHJoin(rc.Join, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		n, err := drainCount[join.Match](e)
		if err != nil {
			return nil, fmt.Errorf("exp: approximate run %s: %w", tc.ID, err)
		}
		res.WallApprox = time.Since(start)
		res.RApx = n
	}

	// Adaptive run: sequential engine, or the partition-parallel
	// executor with the aggregate control loop when Parallelism > 1.
	if rc.Parallelism > 1 {
		ctl, err := adaptive.NewSharded(rc.Parallelism, stream.Left, ds.Parent.Len(), rc.Params)
		if err != nil {
			return nil, err
		}
		if err := rc.arm(ctl); err != nil {
			return nil, err
		}
		ex, err := pjoin.New(pjoin.Config{Join: rc.Join, Shards: rc.Parallelism, Controller: ctl},
			stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		n, err := drainCount[pjoin.Match](ex)
		if err != nil {
			return nil, fmt.Errorf("exp: parallel adaptive run %s: %w", tc.ID, err)
		}
		res.WallAdaptive = time.Since(start)
		res.RAbs = n
		// The shard engines' summed accounting: a tuple is stored
		// (stepped) in its home shard only, so Steps equals the scan
		// length; what the §4.4 cost checks see beyond the sequential
		// run is each shard paying its own switch transitions.
		res.AdaptiveStats = ex.Stats().Stats
		res.Activations = ctl.Activations()
	} else {
		e, err := join.New(rc.Join, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			return nil, err
		}
		ctl, err := adaptive.Attach(e, stream.Left, ds.Parent.Len(), rc.Params)
		if err != nil {
			return nil, err
		}
		if err := rc.arm(ctl); err != nil {
			return nil, err
		}
		start := time.Now()
		n, err := drainCount[join.Match](e)
		if err != nil {
			return nil, fmt.Errorf("exp: adaptive run %s: %w", tc.ID, err)
		}
		res.WallAdaptive = time.Since(start)
		res.RAbs = n
		res.AdaptiveStats = e.Stats()
		res.Activations = ctl.Activations()
	}

	res.GainCost = metrics.Evaluate(res.AdaptiveStats, res.RAbs, res.R, res.RApx, res.Steps, rc.Weights)
	res.Breakdown = metrics.Cost(res.AdaptiveStats, rc.Weights)
	return res, nil
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
// executor) to exhaustion, counting matches without retaining them.
func drainCount[T any](op iterator.Operator[T]) (int, error) {
	if err := op.Open(); err != nil {
		return 0, err
	}
	n := 0
	for {
		_, ok, err := op.Next()
		if err != nil {
			op.Close()
			return n, err
		}
		if !ok {
			break
		}
		n++
	}
	return n, op.Close()
}
