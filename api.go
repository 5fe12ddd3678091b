package adaptivelink

import (
	"fmt"
	"runtime"

	"adaptivelink/internal/adaptive"
	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/pjoin"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/stream"
)

// Side identifies a join input.
type Side int

const (
	// Left is the left input, conventionally the parent (referenced)
	// table.
	Left Side = iota
	// Right is the right input, conventionally the child (referencing)
	// table.
	Right
)

// String returns "left" or "right".
func (s Side) String() string { return stream.Side(s).String() }

// Measure selects the token similarity coefficient used by approximate
// matching.
type Measure int

const (
	// Jaccard is |A∩B|/|A∪B| over q-gram sets (the paper's measure).
	Jaccard Measure = iota
	// Dice is 2|A∩B|/(|A|+|B|).
	Dice
	// Cosine is |A∩B|/√(|A|·|B|).
	Cosine
	// Overlap is |A∩B|/min(|A|,|B|).
	Overlap
)

// String names the measure.
func (m Measure) String() string { return simfn.TokenMeasure(m).String() }

// Strategy selects how the join matches tuples.
type Strategy int

const (
	// Adaptive starts exact and lets the MAR control loop switch
	// operators as variant evidence accumulates (the paper's hybrid
	// algorithm; default).
	Adaptive Strategy = iota
	// ExactOnly runs the pure symmetric hash join SHJoin — the fast,
	// possibly incomplete baseline.
	ExactOnly
	// ApproximateOnly runs the pure symmetric set hash join SSHJoin —
	// the complete, expensive baseline.
	ApproximateOnly
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Adaptive:
		return "adaptive"
	case ExactOnly:
		return "exact"
	case ApproximateOnly:
		return "approximate"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures a Join. The zero value selects the paper's
// defaults for everything except ParentSize, which adaptive joins
// require when the parent source cannot estimate its own cardinality.
type Options struct {
	// Q is the q-gram width (default 3).
	Q int
	// Theta is the similarity threshold θsim in (0,1] above which an
	// approximate pair is reported (default 0.75, calibrated so
	// one-character variants of realistic join keys qualify).
	Theta float64
	// Measure is the similarity coefficient (default Jaccard).
	Measure Measure
	// Strategy selects adaptive, exact-only or approximate-only
	// execution (default Adaptive).
	Strategy Strategy
	// ParentSide says which input is the parent table of the expected
	// parent–child relationship (default Left).
	ParentSide Side
	// ParentSize is the expected parent cardinality |R|, which the
	// statistical monitor needs. 0 means "ask the parent source"; an
	// adaptive join fails to construct if neither is available, unless
	// CalibratedEstimator is set.
	ParentSize int
	// CalibratedEstimator replaces the parent–child result-size model
	// (which needs |R|) with a self-calibrating one: the match rate
	// observed over the first calibration activations becomes the
	// baseline, and deficits are measured against it. Use it when the
	// parent cardinality is unknown, e.g. for open-ended feeds.
	CalibratedEstimator bool
	// RetainWindow, when positive, gives the join sliding-window
	// stream semantics: a new tuple is matched only against the most
	// recent RetainWindow tuples of the opposite side, and older
	// tuples' payloads are released. 0 retains everything.
	RetainWindow int

	// W is the perturbation sliding-window size in steps (default 100).
	W int
	// DeltaAdapt is the number of steps between control-loop
	// activations (default 100).
	DeltaAdapt int
	// ThetaOut is the outlier significance level (default 0.05).
	ThetaOut float64
	// ThetaCurPert is the maximum windowed approximate-match rate for a
	// side to count as unperturbed (default 0.02).
	ThetaCurPert float64
	// ThetaPastPert is the maximum number of past perturbed assessments
	// for a side to count as historically clean (default 3).
	ThetaPastPert int

	// FutilityK, when positive, reverts to exact matching after K
	// consecutive assessments in an approximate state that produced no
	// new approximate matches — the assessor extension the paper
	// sketches in §3.5 for wrong result-size estimates. 0 disables it
	// (the paper's behaviour).
	FutilityK int
	// CostBudget, when positive, pins the join to exact matching once
	// its modelled execution cost (measured in all-exact steps under
	// the paper's weight model) reaches the budget: completeness stops
	// improving but cost stays predictable. 0 disables it.
	CostBudget float64

	// TraceActivations records every control-loop activation for
	// inspection via Activations.
	TraceActivations bool

	// Parallelism is the number of hash partitions (shards) the join
	// executes concurrently. 0 (default) uses runtime.GOMAXPROCS(0);
	// 1 selects the exact sequential engine (the legacy path). With
	// P > 1 both inputs are hash-partitioned by join key: a tuple is
	// stored in its key's home shard only, P engines run on their own
	// goroutines, and a tuple whose side probes approximately is also
	// offered, probe-only, to every other shard's slice of the opposite
	// input. Every pair is found in exactly one shard, so the merged
	// match streams hold nothing to deduplicate; for fixed strategies
	// the result set is identical to the sequential engine's. Adaptive
	// joins aggregate per-shard observations into one deficit test and
	// broadcast switches to all shards at their quiescent points (see
	// doc.go, Concurrency).
	//
	// RetainWindow and CostBudget compose with any Parallelism: the
	// splitter stamps every tuple with its global arrival sequence
	// number, so each shard applies the exact sequential window filter
	// at probe time and evicts index entries on consistent cuts, and
	// the aggregate controller enforces the budget against a global
	// spend counter on the same logical step clock as the sequential
	// engine. Both features produce match sets identical to the
	// sequential engine's (delivery order aside); see doc.go.
	Parallelism int
}

// withDefaults fills unset fields with the paper's settings.
func (o Options) withDefaults() Options {
	if o.Q == 0 {
		o.Q = 3
	}
	if o.Theta == 0 {
		o.Theta = join.DefaultTheta
	}
	def := adaptive.DefaultParams()
	if o.W == 0 {
		o.W = def.W
	}
	if o.DeltaAdapt == 0 {
		o.DeltaAdapt = def.DeltaAdapt
	}
	if o.ThetaOut == 0 {
		o.ThetaOut = def.ThetaOut
	}
	if o.ThetaCurPert == 0 {
		o.ThetaCurPert = def.ThetaCurPert
	}
	if o.ThetaPastPert == 0 {
		o.ThetaPastPert = def.ThetaPastPert
	}
	return o
}

// Match is one joined pair.
type Match struct {
	// Left and Right are the matched tuples.
	Left  Tuple
	Right Tuple
	// Similarity is 1 for key-equal pairs, otherwise the verified
	// similarity of the two keys under the configured measure.
	Similarity float64
	// Exact reports key equality.
	Exact bool
	// Step is the engine step at which the pair was found. On a
	// parallel join it is the computing shard's local step counter.
	Step int
}

// Join is the public join operator: an iterator over matches.
type Join struct {
	// Sequential path (Parallelism == 1).
	engine *join.Engine
	ctl    *adaptive.Controller
	// Partition-parallel path (Parallelism > 1).
	pexec *pjoin.Executor
	sctl  *adaptive.ShardedController
	par   int
	opts  Options
}

// New constructs a join over the two sources. For adaptive joins the
// parent cardinality must be known: set Options.ParentSize or supply a
// parent source with a size estimate (FromTuples, FromKeys and CSV
// sources with a size hint all provide one).
func New(left, right Source, opts Options) (*Join, error) {
	if left == nil || right == nil {
		return nil, fmt.Errorf("adaptivelink: nil source")
	}
	if opts.RetainWindow < 0 {
		return nil, fmt.Errorf("adaptivelink: negative retain window %d (0 retains everything, positive keeps the most recent tuples per side)", opts.RetainWindow)
	}
	if opts.CostBudget < 0 {
		return nil, fmt.Errorf("adaptivelink: negative cost budget %v (0 disables the budget, positive pins to exact matching once the modelled spend reaches it)", opts.CostBudget)
	}
	opts = opts.withDefaults()

	cfg := join.Config{
		Q:            opts.Q,
		Theta:        opts.Theta,
		Measure:      simfn.TokenMeasure(opts.Measure),
		Initial:      join.LexRex,
		RetainWindow: opts.RetainWindow,
	}
	switch opts.Strategy {
	case Adaptive, ExactOnly:
		cfg.Initial = join.LexRex
	case ApproximateOnly:
		cfg.Initial = join.LapRap
	default:
		return nil, fmt.Errorf("adaptivelink: unknown strategy %d", int(opts.Strategy))
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("adaptivelink: %w", err)
	}

	par := opts.Parallelism
	if par < 0 {
		return nil, fmt.Errorf("adaptivelink: negative parallelism %d (0 uses one shard per CPU, 1 the sequential engine)", par)
	}
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}

	// Resolve the adaptive control-loop inputs once for both paths.
	var params adaptive.Params
	var parentSide stream.Side
	var parentSize int
	if opts.Strategy == Adaptive {
		parentSide = stream.Side(opts.ParentSide)
		parentSrc := left
		if parentSide == stream.Right {
			parentSrc = right
		}
		parentSize = opts.ParentSize
		if parentSize == 0 {
			parentSize = stream.EstimateSize(parentSrc, 0)
		}
		if parentSize <= 0 && !opts.CalibratedEstimator {
			return nil, fmt.Errorf("adaptivelink: adaptive strategy needs the parent cardinality: set Options.ParentSize, use a sized source, or set CalibratedEstimator")
		}
		params = adaptive.Params{
			W:             opts.W,
			DeltaAdapt:    opts.DeltaAdapt,
			ThetaOut:      opts.ThetaOut,
			ThetaCurPert:  opts.ThetaCurPert,
			ThetaPastPert: opts.ThetaPastPert,
			FutilityK:     opts.FutilityK,
		}
		if opts.CalibratedEstimator {
			params.Estimator = adaptive.EstimatorCalibrated
			params.CalibrationActivations = adaptive.DefaultParams().CalibrationActivations
		}
	}

	if par > 1 {
		pcfg := pjoin.Config{Join: cfg, Shards: par}
		j := &Join{par: par, opts: opts}
		if opts.Strategy == Adaptive {
			sctl, err := adaptive.NewSharded(par, parentSide, parentSize, params)
			if err != nil {
				return nil, fmt.Errorf("adaptivelink: %w", err)
			}
			if err := armLoop(sctl, opts.TraceActivations, opts.CostBudget); err != nil {
				return nil, err
			}
			j.sctl = sctl
			pcfg.Controller = sctl
		}
		exec, err := pjoin.New(pcfg, left, right)
		if err != nil {
			return nil, fmt.Errorf("adaptivelink: %w", err)
		}
		j.pexec = exec
		return j, nil
	}

	engine, err := join.New(cfg, left, right, nil)
	if err != nil {
		return nil, fmt.Errorf("adaptivelink: %w", err)
	}
	j := &Join{engine: engine, par: 1, opts: opts}

	if opts.Strategy == Adaptive {
		ctl, err := adaptive.Attach(engine, parentSide, parentSize, params)
		if err != nil {
			return nil, fmt.Errorf("adaptivelink: %w", err)
		}
		if err := armLoop(ctl, opts.TraceActivations, opts.CostBudget); err != nil {
			return nil, err
		}
		j.ctl = ctl
	}
	return j, nil
}

// armLoop applies the two opt-in loop features every driver shares — the
// activation trace and the §4.4 cost budget, priced under the paper's
// weights — to a freshly built controller or session loop.
func armLoop(l interface {
	EnableTrace()
	EnableCostBudget(metrics.Weights, float64) error
}, trace bool, budget float64) error {
	if trace {
		l.EnableTrace()
	}
	if budget > 0 {
		if err := l.EnableCostBudget(metrics.PaperWeights(), budget); err != nil {
			return fmt.Errorf("adaptivelink: %w", err)
		}
	}
	return nil
}

// Parallelism returns the number of shards the join executes on (1 for
// the sequential engine).
func (j *Join) Parallelism() int { return j.par }

// Open prepares the join for iteration. On a parallel join it starts
// the splitter, shard and merger goroutines.
func (j *Join) Open() error {
	if j.pexec != nil {
		return j.pexec.Open()
	}
	return j.engine.Open()
}

// Next returns the next match, with ok=false once both inputs are
// exhausted and every match has been delivered. On a parallel join the
// match *set* is deterministic but the delivery order is not.
func (j *Join) Next() (m Match, ok bool, err error) {
	if j.pexec != nil {
		pm, ok, err := j.pexec.Next()
		if err != nil || !ok {
			return Match{}, ok, err
		}
		return Match{
			Left:       pm.Left,
			Right:      pm.Right,
			Similarity: pm.Similarity,
			Exact:      pm.Exact,
			Step:       pm.Step,
		}, true, nil
	}
	im, ok, err := j.engine.Next()
	if err != nil || !ok {
		return Match{}, ok, err
	}
	return j.publicMatch(im), true, nil
}

// Close releases the join's resources. On a parallel join it cancels
// and reaps every goroutine.
func (j *Join) Close() error {
	if j.pexec != nil {
		return j.pexec.Close()
	}
	return j.engine.Close()
}

// All opens (if needed), drains and closes the join, returning every
// match.
func (j *Join) All() ([]Match, error) {
	if err := j.Open(); err != nil {
		return nil, err
	}
	var out []Match
	for {
		m, ok, err := j.Next()
		if err != nil {
			j.Close()
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out, j.Close()
}

// State returns the current processor state name ("lex/rex", "lap/rex",
// "lex/rap" or "lap/rap"). On a parallel adaptive join it is the
// broadcast target state, which every shard converges to at its next
// quiescent point.
func (j *Join) State() string {
	if j.pexec != nil {
		if j.sctl != nil {
			return j.sctl.State().String()
		}
		switch j.opts.Strategy {
		case ApproximateOnly:
			return join.LapRap.String()
		default:
			return join.LexRex.String()
		}
	}
	return j.engine.State().String()
}

func (j *Join) publicMatch(im join.Match) Match {
	return Match{
		Left:       j.engine.StoredTuple(stream.Left, im.LeftRef),
		Right:      j.engine.StoredTuple(stream.Right, im.RightRef),
		Similarity: im.Similarity,
		Exact:      im.Exact,
		Step:       im.Step,
	}
}
