package exp

import (
	"encoding/csv"
	"io"
	"strconv"

	"adaptivelink/internal/join"
)

// WriteResultsCSV emits the full per-case result table (Figs. 6–8 in
// one machine-readable file): one row per test case with baselines,
// gain/cost metrics, per-state step shares and cost shares.
func WriteResultsCSV(w io.Writer, results []*Result) error {
	cw := csv.NewWriter(w)
	header := []string{
		"case", "r_exact", "R_approx", "r_abs", "steps",
		"g_rel", "c_rel", "efficiency",
		"steps_EE", "steps_AE", "steps_EA", "steps_AA", "switches", "catchup_tuples",
		"cost_EE", "cost_AE", "cost_EA", "cost_AA", "cost_transitions", "cost_total",
		"wall_exact_ns", "wall_approx_ns", "wall_adaptive_ns",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	d := strconv.Itoa
	for _, r := range results {
		st := r.AdaptiveStats
		row := []string{
			r.Case.ID, d(r.R), d(r.RApx), d(r.RAbs), d(r.Steps),
			f(r.GainCost.Grel), f(r.GainCost.Crel), f(r.GainCost.Efficiency),
			d(st.StepsInState[join.LexRex.Index()]), d(st.StepsInState[join.LapRex.Index()]),
			d(st.StepsInState[join.LexRap.Index()]), d(st.StepsInState[join.LapRap.Index()]),
			d(st.Switches), d(st.CatchUpTuples),
			f(r.Breakdown.StateCosts[join.LexRex.Index()]), f(r.Breakdown.StateCosts[join.LapRex.Index()]),
			f(r.Breakdown.StateCosts[join.LexRap.Index()]), f(r.Breakdown.StateCosts[join.LapRap.Index()]),
			f(r.Breakdown.TransitionTotal()), f(r.Breakdown.Total),
			d(int(r.WallExact.Nanoseconds())), d(int(r.WallApprox.Nanoseconds())),
			d(int(r.WallAdaptive.Nanoseconds())),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
