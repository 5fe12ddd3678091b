package exp

import (
	"fmt"
	"strings"
	"time"

	"adaptivelink/internal/datagen"
	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/stats"
	"adaptivelink/internal/stream"
)

// MeasuredWeights is the outcome of the §4.3 calibration on this host:
// normalised weights plus the raw per-step and per-transition times they
// came from.
type MeasuredWeights struct {
	Weights         metrics.Weights
	RawStepNs       [4]float64
	RawTransitionNs [4]float64
	Reps            int
}

// MeasureWeights reproduces the weight calibration of §4.3 on this
// implementation and host: the per-step unit costs w_i are measured by
// running the engine pinned in each state over identical inputs, and the
// transition costs v_i by timing SetState into each state at the scan
// midpoint (when the lagging indexes must catch up on half the input).
// All times are averaged over reps runs and normalised by the lex/rex
// step cost.
func MeasureWeights(parentSize, childSize int, seed int64, reps int) (MeasuredWeights, error) {
	if reps < 1 {
		return MeasuredWeights{}, fmt.Errorf("exp: reps %d < 1", reps)
	}
	spec := datagen.Defaults(datagen.Uniform, false)
	spec.Seed = seed
	spec.ParentSize, spec.ChildSize = parentSize, childSize
	ds, err := datagen.Generate(spec)
	if err != nil {
		return MeasuredWeights{}, err
	}
	out := MeasuredWeights{Reps: reps}

	// Step costs: pinned-state runs.
	var stepNs [4]stats.Welford
	for rep := 0; rep < reps; rep++ {
		for _, st := range join.AllStates {
			cfg := join.Defaults()
			cfg.Initial = st
			e, err := join.New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
			if err != nil {
				return MeasuredWeights{}, err
			}
			_, elapsed, err := drainCount[join.Match](e)
			if err != nil {
				return MeasuredWeights{}, err
			}
			stepNs[st.Index()].Add(float64(elapsed.Nanoseconds()) / float64(e.Stats().Steps))
		}
	}
	for i := range stepNs {
		out.RawStepNs[i] = stepNs[i].Mean()
	}

	// Transition costs: run half the scan in a source state whose
	// target-state indexes lag maximally, then time the switch.
	// Sources: into EE we come from AA (exact indexes lag); into any
	// approximate-bearing state we come from EE (q-gram indexes lag).
	sources := map[join.State]join.State{
		join.LexRex: join.LapRap,
		join.LapRex: join.LexRex,
		join.LexRap: join.LexRex,
		join.LapRap: join.LexRex,
	}
	half := (ds.Parent.Len() + ds.Child.Len()) / 2
	var transNs [4]stats.Welford
	for rep := 0; rep < reps; rep++ {
		for target, source := range sources {
			cfg := join.Defaults()
			cfg.Initial = source
			e, err := join.New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
			if err != nil {
				return MeasuredWeights{}, err
			}
			var switchDur time.Duration
			e.OnStep = func(en *join.Engine) {
				if en.Step() == half {
					start := time.Now()
					if _, err := en.SetState(target); err != nil {
						panic(fmt.Sprintf("exp: calibration switch: %v", err))
					}
					switchDur = time.Since(start)
				}
			}
			if _, _, err := drainCount[join.Match](e); err != nil {
				return MeasuredWeights{}, err
			}
			transNs[target.Index()].Add(float64(switchDur.Nanoseconds()))
		}
	}
	for i := range transNs {
		out.RawTransitionNs[i] = transNs[i].Mean()
	}

	// Normalise by the lex/rex step cost (§4.3).
	unit := out.RawStepNs[join.LexRex.Index()]
	if unit <= 0 {
		return MeasuredWeights{}, fmt.Errorf("exp: degenerate unit step cost %v", unit)
	}
	for i := range out.RawStepNs {
		out.Weights.Step[i] = out.RawStepNs[i] / unit
		out.Weights.Transition[i] = out.RawTransitionNs[i] / unit
	}
	return out, nil
}

// WeightsText renders a calibration result next to the paper's weights.
func WeightsText(m MeasuredWeights) string {
	paper := metrics.PaperWeights()
	var b strings.Builder
	fmt.Fprintf(&b, "Weight calibration (§4.3), %d repetition(s)\n", m.Reps)
	fmt.Fprintf(&b, "%-10s %14s %12s %12s\n", "state", "raw step ns", "w (ours)", "w (paper)")
	for _, st := range join.AllStates {
		i := st.Index()
		fmt.Fprintf(&b, "%-10s %14.0f %12.2f %12.2f\n",
			st, m.RawStepNs[i], m.Weights.Step[i], paper.Step[i])
	}
	fmt.Fprintf(&b, "%-10s %14s %12s %12s\n", "into", "raw switch ns", "v (ours)", "v (paper)")
	for _, st := range join.AllStates {
		i := st.Index()
		fmt.Fprintf(&b, "%-10s %14.0f %12.2f %12.2f\n",
			st, m.RawTransitionNs[i], m.Weights.Transition[i], paper.Transition[i])
	}
	return b.String()
}
