package exp

import (
	"strings"
	"testing"

	"adaptivelink/internal/datagen"
	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
)

func smallCases(t *testing.T) []TestCase {
	t.Helper()
	return PaperTestCases(3, 700, 700)
}

func TestPaperTestCasesLayout(t *testing.T) {
	cases := PaperTestCases(1, 100, 200)
	if len(cases) != 8 {
		t.Fatalf("got %d cases, want 8", len(cases))
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		if seen[tc.ID] {
			t.Errorf("duplicate case ID %q", tc.ID)
		}
		seen[tc.ID] = true
		if tc.Spec.ParentSize != 100 || tc.Spec.ChildSize != 200 {
			t.Errorf("case %s sizes %d/%d", tc.ID, tc.Spec.ParentSize, tc.Spec.ChildSize)
		}
		if err := tc.Spec.Validate(); err != nil {
			t.Errorf("case %s invalid: %v", tc.ID, err)
		}
	}
	// Both perturbation sides present for each pattern.
	for _, p := range datagen.AllPatterns {
		if !seen[p.String()+"/child-only"] || !seen[p.String()+"/both"] {
			t.Errorf("pattern %v missing a perturbation side", p)
		}
	}
}

func TestRunCaseInvariants(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Params.DeltaAdapt, rc.Params.W = 50, 50
	rc.Trace = true
	for _, tc := range smallCases(t)[:4] {
		res, err := RunCase(tc, rc)
		if err != nil {
			t.Fatalf("%s: %v", tc.ID, err)
		}
		if !(res.R <= res.RAbs && res.RAbs <= res.RApx) {
			t.Errorf("%s: completeness ordering r=%d rabs=%d R=%d", tc.ID, res.R, res.RAbs, res.RApx)
		}
		if res.Steps != tc.Spec.ParentSize+tc.Spec.ChildSize {
			t.Errorf("%s: steps %d", tc.ID, res.Steps)
		}
		if res.AdaptiveStats.Steps != res.Steps {
			t.Errorf("%s: adaptive steps %d != %d", tc.ID, res.AdaptiveStats.Steps, res.Steps)
		}
		if res.Breakdown.Total > metrics.PureCost(res.Steps, join.LapRap, rc.Weights) {
			t.Errorf("%s: adaptive cost %v exceeds all-approximate", tc.ID, res.Breakdown.Total)
		}
		if res.GainCost.Grel < 0 || res.GainCost.Grel > 1 {
			t.Errorf("%s: g_rel %v out of range", tc.ID, res.GainCost.Grel)
		}
		if len(res.Activations) == 0 {
			t.Errorf("%s: no activations traced", tc.ID)
		}
		if res.WallExact <= 0 || res.WallApprox <= 0 || res.WallAdaptive <= 0 {
			t.Errorf("%s: missing wall times", tc.ID)
		}
	}
}

func TestRunCaseDeterministicCounts(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Params.DeltaAdapt, rc.Params.W = 50, 50
	tc := smallCases(t)[0]
	a, err := RunCase(tc, rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCase(tc, rc)
	if err != nil {
		t.Fatal(err)
	}
	if a.R != b.R || a.RApx != b.RApx || a.RAbs != b.RAbs {
		t.Errorf("non-deterministic counts: %d/%d/%d vs %d/%d/%d",
			a.R, a.RApx, a.RAbs, b.R, b.RApx, b.RAbs)
	}
	if a.AdaptiveStats != b.AdaptiveStats {
		t.Errorf("non-deterministic stats: %+v vs %+v", a.AdaptiveStats, b.AdaptiveStats)
	}
}

func TestRunCaseRejectsBadConfig(t *testing.T) {
	tc := smallCases(t)[0]
	rc := DefaultRunConfig()
	rc.Join.Q = 0
	if _, err := RunCase(tc, rc); err == nil {
		t.Error("bad join config accepted")
	}
	rc = DefaultRunConfig()
	rc.Params.W = 0
	if _, err := RunCase(tc, rc); err == nil {
		t.Error("bad params accepted")
	}
	rc = DefaultRunConfig()
	rc.Weights.Step[0] = 0
	if _, err := RunCase(tc, rc); err == nil {
		t.Error("bad weights accepted")
	}
}

func TestRunAllAndReports(t *testing.T) {
	rc := DefaultRunConfig()
	rc.Params.DeltaAdapt, rc.Params.W = 50, 50
	results, err := RunAll(smallCases(t), rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}

	fig6 := Fig6Table(results)
	for _, want := range []string{"g_rel", "c_rel", "uniform/child-only", "many-high/both"} {
		if !strings.Contains(fig6, want) {
			t.Errorf("Fig6Table missing %q:\n%s", want, fig6)
		}
	}
	fig7 := Fig7Table(results)
	if !strings.Contains(fig7, "EE%") || !strings.Contains(fig7, "trans") {
		t.Errorf("Fig7Table malformed:\n%s", fig7)
	}
	fig8 := Fig8Table(results)
	if !strings.Contains(fig8, "c_abs") {
		t.Errorf("Fig8Table malformed:\n%s", fig8)
	}
	sum := SummaryChecks(results, rc.Weights)
	if !strings.Contains(sum, "efficiency e > 0") {
		t.Errorf("SummaryChecks malformed:\n%s", sum)
	}
	// The central reproduction claims must hold even at reduced scale.
	if strings.Contains(sum, "FAIL] adaptive cost never exceeds") {
		t.Errorf("cost ceiling violated:\n%s", sum)
	}
	if strings.Contains(sum, "FAIL] efficiency e > 0") {
		t.Errorf("efficiency claim violated:\n%s", sum)
	}
}

func TestFig5Maps(t *testing.T) {
	out := Fig5Maps(8082, 64)
	for _, want := range []string{"(a) uniform", "(b)", "(c)", "(d)", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5Maps missing %q", want)
		}
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 6 {
		t.Errorf("Fig5Maps too short:\n%s", out)
	}
}

func TestMeasureTable1(t *testing.T) {
	rows, err := MeasureTable1(3000, 1, join.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].SHJoinNs != -1 || rows[2].SHJoinNs != -1 {
		t.Error("SHJoin should have no q-gram or T(t) operations")
	}
	if rows[0].SSHJoinNs <= 0 || rows[2].SSHJoinNs <= 0 {
		t.Error("SSHJoin operations not measured")
	}
	// The structural claim of Table 1: SSHJoin's hash update costs more
	// than SHJoin's single insertion (it inserts one posting per gram).
	if rows[1].SSHJoinNs <= rows[1].SHJoinNs {
		t.Errorf("q-gram insert (%v ns) not costlier than exact insert (%v ns)",
			rows[1].SSHJoinNs, rows[1].SHJoinNs)
	}
	text := Table1Text(rows)
	if !strings.Contains(text, "obtain q-grams") || !strings.Contains(text, "–") {
		t.Errorf("Table1Text malformed:\n%s", text)
	}
}

func TestMeasureTable1Validation(t *testing.T) {
	if _, err := MeasureTable1(1, 1, join.Defaults()); err == nil {
		t.Error("tiny corpus accepted")
	}
	bad := join.Defaults()
	bad.Theta = 0
	if _, err := MeasureTable1(100, 1, bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestMeasureWeights(t *testing.T) {
	m, err := MeasureWeights(400, 400, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Weights.Validate(); err != nil {
		t.Errorf("measured weights invalid: %v", err)
	}
	if m.Weights.Step[join.LexRex.Index()] != 1 {
		t.Errorf("baseline weight %v, want 1", m.Weights.Step[join.LexRex.Index()])
	}
	// Approximate steps must be costlier than exact ones (the entire
	// premise of the trade-off).
	if m.Weights.Step[join.LapRap.Index()] < 2 {
		t.Errorf("lap/rap weight %v suspiciously low", m.Weights.Step[join.LapRap.Index()])
	}
	for i, v := range m.Weights.Transition {
		if v < 0 {
			t.Errorf("transition weight %d negative: %v", i, v)
		}
	}
	text := WeightsText(m)
	if !strings.Contains(text, "w (paper)") || !strings.Contains(text, "lex/rex") {
		t.Errorf("WeightsText malformed:\n%s", text)
	}
}

func TestMeasureWeightsValidation(t *testing.T) {
	if _, err := MeasureWeights(100, 100, 1, 0); err == nil {
		t.Error("reps=0 accepted")
	}
}

func TestTuningSweep(t *testing.T) {
	tc := smallCases(t)[4] // few-high/child-only: strong signal
	rc := DefaultRunConfig()
	grid := Grid{
		DeltaAdapt:    []int{50},
		W:             []int{50},
		ThetaOut:      []float64{0.05},
		ThetaCurPert:  []float64{0.02, 0.1},
		ThetaPastPert: []int{3},
	}
	if grid.Size() != 2 {
		t.Fatalf("grid size %d", grid.Size())
	}
	points, err := TuneSweep(tc, rc, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	// Sorted by decreasing efficiency.
	if points[0].GainCost.Efficiency < points[1].GainCost.Efficiency {
		t.Error("sweep not sorted")
	}
	// The sweep computes the dataset and baselines once; every point
	// must still equal a full RunCase under its parameters.
	for _, p := range points {
		run := rc
		run.Params = p.Params
		res, err := RunCase(tc, run)
		if err != nil {
			t.Fatal(err)
		}
		if p.GainCost != res.GainCost || p.RAbs != res.RAbs {
			t.Errorf("%+v: sweep %+v r_abs %d, RunCase %+v r_abs %d",
				p.Params, p.GainCost, p.RAbs, res.GainCost, res.RAbs)
		}
	}
	table := TuningTable(points, 10)
	if !strings.Contains(table, "δadapt") {
		t.Errorf("TuningTable malformed:\n%s", table)
	}
}

func TestTuneSweepEmptyGrid(t *testing.T) {
	if _, err := TuneSweep(smallCases(t)[0], DefaultRunConfig(), Grid{}); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestDefaultGridBracketsPaperSettings(t *testing.T) {
	g := DefaultGrid()
	if g.Size() == 0 {
		t.Fatal("empty default grid")
	}
	has := func(xs []int, v int) bool {
		for _, x := range xs {
			if x == v {
				return true
			}
		}
		return false
	}
	hasF := func(xs []float64, v float64) bool {
		for _, x := range xs {
			if x == v {
				return true
			}
		}
		return false
	}
	if !has(g.DeltaAdapt, 100) || !has(g.W, 100) || !hasF(g.ThetaOut, 0.05) || !hasF(g.ThetaCurPert, 0.02) {
		t.Error("default grid does not include the paper's best settings")
	}
}

func TestRunCaseParallel(t *testing.T) {
	// The sharded adaptive run must stay between the sequential
	// baselines and carry a usable trace, like the sequential run.
	cases := PaperTestCases(5, 400, 400)
	rc := DefaultRunConfig()
	rc.Parallelism = 4
	rc.Trace = true
	res, err := RunCase(cases[4], rc) // few-high/child-only
	if err != nil {
		t.Fatal(err)
	}
	if res.RAbs < res.R || res.RAbs > res.RApx {
		t.Errorf("parallel adaptive result %d outside [r=%d, R=%d]", res.RAbs, res.R, res.RApx)
	}
	if got := res.AdaptiveStats.Read; got[0] != 400 || got[1] != 400 {
		t.Errorf("aggregate reads %v, want [400 400]", got)
	}
	if res.AdaptiveStats.Steps != 800 {
		t.Errorf("shard steps %d, want one storing step per dispatched tuple (800)", res.AdaptiveStats.Steps)
	}
	inState := 0
	for _, s := range res.AdaptiveStats.StepsInState {
		inState += s
	}
	if inState != res.AdaptiveStats.Steps {
		t.Errorf("steps-in-state %d != steps %d (engine invariant)", inState, res.AdaptiveStats.Steps)
	}
	if len(res.Activations) == 0 {
		t.Error("no activations traced on the parallel run")
	}
	if res.GainCost.Grel < 0 || res.GainCost.Grel > 1 {
		t.Errorf("relative gain %v outside [0,1]", res.GainCost.Grel)
	}
}

func TestRunCaseParallelWindowBudget(t *testing.T) {
	// The safety valves compose with sharding in the harness: a
	// windowed, budgeted, 4-shard adaptive run must return exactly the
	// sequential engine's result size under the same knobs (the parity
	// the executor's sequence stamps and the aggregated spend counter
	// guarantee), and stay within the baselines, which are windowed
	// like it.
	cases := PaperTestCases(5, 400, 400)
	rc := DefaultRunConfig()
	rc.Join.RetainWindow = 150
	rc.CostBudget = 5_000
	rc.Parallelism = 1
	seq, err := RunCase(cases[4], rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.Parallelism = 4
	par, err := RunCase(cases[4], rc)
	if err != nil {
		t.Fatal(err)
	}
	if par.RAbs != seq.RAbs {
		t.Errorf("windowed+budgeted parallel result %d, sequential %d", par.RAbs, seq.RAbs)
	}
	if par.RAbs > par.RApx {
		t.Errorf("windowed result %d above the windowed approximate ceiling %d", par.RAbs, par.RApx)
	}
	if par.AdaptiveStats.Evicted[0]+par.AdaptiveStats.Evicted[1] == 0 {
		t.Error("no evictions recorded on the windowed parallel run")
	}
}

func TestRunCaseWindowedBaselines(t *testing.T) {
	// A window applies to all three runs of a case: the exact baseline
	// r is windowed like R and the adaptive run, so the adaptive result
	// stays between them and g_rel in [0,1]. An unwindowed r (1,796
	// pairs here) would sit far above the windowed R.
	tc := PaperTestCases(5, 2000, 2000)[4] // few-high/child-only
	rc := DefaultRunConfig()
	rc.Join.RetainWindow = 150
	res, err := RunCase(tc, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.R <= res.RAbs && res.RAbs <= res.RApx) {
		t.Errorf("windowed ordering r=%d rabs=%d R=%d", res.R, res.RAbs, res.RApx)
	}
	if g := res.GainCost.Grel; g < 0 || g > 1 {
		t.Errorf("windowed g_rel %v outside [0,1]", g)
	}
}
