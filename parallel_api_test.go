package adaptivelink

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// goldenData returns a fixed-seed perturbed dataset; every test using
// the same arguments sees byte-identical tuples.
func goldenData(t testing.TB, seed int64, size int) *TestData {
	t.Helper()
	td, err := GenerateTestData(seed, size, size, PatternFewHigh, 0.10, true)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

func matchSet(t testing.TB, td *TestData, opts Options) []string {
	t.Helper()
	j, err := New(td.ParentSource(), td.ChildSource(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := j.All()
	if err != nil {
		t.Fatal(err)
	}
	sigs := make([]string, len(ms))
	for i, m := range ms {
		sigs[i] = fmt.Sprintf("%d|%d|%.9f|%v", m.Left.ID, m.Right.ID, m.Similarity, m.Exact)
	}
	sort.Strings(sigs)
	return sigs
}

func assertSameSet(t *testing.T, want, got []string, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: match sets diverge at %d: %s vs %s", label, i, got[i], want[i])
		}
	}
}

// TestParallelParityFixedStrategies is the public-API golden parity
// test: for fixed seeds, a 4-way parallel join returns exactly the same
// match set (order-insensitive) as the sequential engine under both
// fixed strategies.
func TestParallelParityFixedStrategies(t *testing.T) {
	td := goldenData(t, 99, 400)
	for _, strat := range []Strategy{ExactOnly, ApproximateOnly} {
		seq := matchSet(t, td, Options{Strategy: strat, Parallelism: 1})
		par := matchSet(t, td, Options{Strategy: strat, Parallelism: 4})
		assertSameSet(t, seq, par, strat.String())
		if len(seq) == 0 {
			t.Fatalf("%v: golden dataset produced no matches", strat)
		}
	}
}

// TestParallelAdaptive exercises the sharded control loop end to end
// through the facade: the aggregate deficit test must recover variant
// matches beyond the exact baseline, and the trace must be observable.
func TestParallelAdaptive(t *testing.T) {
	td := goldenData(t, 7, 600)
	exact := matchSet(t, td, Options{Strategy: ExactOnly, Parallelism: 1})
	approx := matchSet(t, td, Options{Strategy: ApproximateOnly, Parallelism: 1})

	j, err := New(td.ParentSource(), td.ChildSource(), Options{
		Strategy:         Adaptive,
		Parallelism:      4,
		TraceActivations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d, want 4", got)
	}
	ms, err := j.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) <= len(exact) {
		t.Errorf("parallel adaptive found %d matches, exact baseline %d — no gain", len(ms), len(exact))
	}
	if len(ms) > len(approx) {
		t.Errorf("parallel adaptive found %d matches, above the approximate ceiling %d", len(ms), len(approx))
	}

	st := j.Stats()
	if st.Parallelism != 4 {
		t.Errorf("Stats.Parallelism = %d, want 4", st.Parallelism)
	}
	if st.Matches != len(ms) {
		t.Errorf("Stats.Matches = %d, stream delivered %d", st.Matches, len(ms))
	}
	if st.LeftRead != 600 || st.RightRead != 600 {
		t.Errorf("read counts (%d,%d), want (600,600)", st.LeftRead, st.RightRead)
	}
	if st.Steps != 1200 {
		t.Errorf("Steps = %d, want 1200 (each input tuple once)", st.Steps)
	}
	if st.ShardSteps != st.Steps {
		t.Errorf("ShardSteps = %d, want Steps = %d (one storing step per tuple)", st.ShardSteps, st.Steps)
	}
	if st.Switches == 0 {
		t.Error("no shard switches despite 10% variants")
	}
	if len(j.Activations()) == 0 {
		t.Error("no activations traced")
	}
	if s := j.State(); s == "" {
		t.Error("empty state name")
	}
}

// TestParallelDefaults pins the Parallelism option semantics: 0
// resolves to GOMAXPROCS and the formerly sequential-only features —
// RetainWindow and CostBudget — now keep the requested shard count.
func TestParallelDefaults(t *testing.T) {
	td := goldenData(t, 11, 60)
	j, err := New(td.ParentSource(), td.ChildSource(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Parallelism() < 1 {
		t.Errorf("default parallelism %d < 1", j.Parallelism())
	}
	j.Close()

	for name, opts := range map[string]Options{
		"retain-window": {Parallelism: 4, RetainWindow: 50, Strategy: ExactOnly},
		"cost-budget":   {Parallelism: 4, CostBudget: 1000},
		"both":          {Parallelism: 4, RetainWindow: 50, CostBudget: 1000},
	} {
		j, err := New(td.ParentSource(), td.ChildSource(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if j.Parallelism() != 4 {
			t.Errorf("%s: parallelism %d, want the requested 4 (no sequential fallback)", name, j.Parallelism())
		}
		if _, err := j.All(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestOptionsValidation pins the descriptive rejection of nonsense
// option values that previously misbehaved silently or opaquely.
func TestOptionsValidation(t *testing.T) {
	td := goldenData(t, 11, 40)
	for name, tc := range map[string]struct {
		opts Options
		want string
	}{
		"negative-parallelism": {Options{Parallelism: -1}, "negative parallelism"},
		"negative-window":      {Options{RetainWindow: -5}, "negative retain window"},
		"negative-budget":      {Options{CostBudget: -0.5}, "negative cost budget"},
	} {
		_, err := New(td.ParentSource(), td.ChildSource(), tc.opts)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// parityOptions enumerates the windowed, budgeted and windowed+budgeted
// configurations of the public parity harness. Budgets only bind under
// the adaptive strategy; windows apply everywhere.
func parityOptions() map[string]Options {
	return map[string]Options{
		"windowed-exact":    {Strategy: ExactOnly, RetainWindow: 80},
		"windowed-approx":   {Strategy: ApproximateOnly, RetainWindow: 80},
		"windowed-adaptive": {Strategy: Adaptive, RetainWindow: 120},
		"budgeted-tight":    {Strategy: Adaptive, CostBudget: 500},
		"budgeted-mid":      {Strategy: Adaptive, CostBudget: 8_000},
		"budgeted-loose":    {Strategy: Adaptive, CostBudget: 1e9},
		"windowed+budgeted": {Strategy: Adaptive, RetainWindow: 120, CostBudget: 8_000},
	}
}

// TestParallelWindowBudgetParity is the public-API golden parity test
// for the two formerly sequential-only safety valves: windowed,
// budgeted and windowed+budgeted joins at P∈{2,4} must return exactly
// the sequential engine's match set. For the budgeted adaptive runs
// this also exercises decision parity: the aggregate controller's
// window replay and logical spend counter must fire the same switches
// (including the budget pin) at the same consistent cuts the sequential
// controller activates at.
func TestParallelWindowBudgetParity(t *testing.T) {
	td := goldenData(t, 99, 400)
	for name, opts := range parityOptions() {
		t.Run(name, func(t *testing.T) {
			opts.Parallelism = 1
			seq := matchSet(t, td, opts)
			for _, p := range []int{2, 4} {
				opts.Parallelism = p
				par := matchSet(t, td, opts)
				assertSameSet(t, seq, par, fmt.Sprintf("%s/P=%d", name, p))
			}
			if len(seq) == 0 {
				t.Fatalf("%s: golden dataset produced no matches", name)
			}
		})
	}
}

// TestParallelWindowBudgetParityRandom is the randomized property: any
// seed, any window, any budget, P vs sequential — identical match sets.
// Run under -race by CI.
func TestParallelWindowBudgetParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		seed := rng.Int63()
		size := 150 + rng.Intn(250)
		td := goldenData(t, seed, size)
		opts := Options{Strategy: Adaptive}
		if rng.Intn(2) == 0 {
			opts.RetainWindow = 20 + rng.Intn(2*size)
		}
		if opts.RetainWindow == 0 || rng.Intn(2) == 0 {
			opts.CostBudget = 200 + 400*rng.Float64()*float64(size)
		}
		p := 2 + rng.Intn(3)
		name := fmt.Sprintf("trial%d/seed=%d/size=%d/w=%d/b=%.0f/P=%d",
			trial, seed, size, opts.RetainWindow, opts.CostBudget, p)
		t.Run(name, func(t *testing.T) {
			opts.Parallelism = 1
			seq := matchSet(t, td, opts)
			opts.Parallelism = p
			par := matchSet(t, td, opts)
			assertSameSet(t, seq, par, name)
		})
	}
}

// TestParallelBudgetStats checks the budget surface of Stats: the
// parallel spend counter tracks the logical scan (one transition per
// broadcast switch, where ModelledCost has every shard's own) and a
// tight budget actually pins the run.
func TestParallelBudgetStats(t *testing.T) {
	td := goldenData(t, 7, 600)
	j, err := New(td.ParentSource(), td.ChildSource(), Options{
		Strategy:         Adaptive,
		Parallelism:      4,
		CostBudget:       600,
		TraceActivations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.All(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.BudgetSpend <= 0 {
		t.Errorf("BudgetSpend = %v, want > 0", st.BudgetSpend)
	}
	if st.BudgetSpend > st.ModelledCost {
		t.Errorf("logical spend %v exceeds the shards' modelled cost %v", st.BudgetSpend, st.ModelledCost)
	}
	if got := j.State(); got != "lex/rex" {
		t.Errorf("state after exhausting a tight budget = %s, want lex/rex", got)
	}
	// The trace carries the same counter: the last activation's Spend is
	// the spend as of the last barrier, and the sequential run of the
	// same join records the same Spend at every activation.
	acts := j.Activations()
	if last := acts[len(acts)-1].Spend; math.Abs(last-st.BudgetSpend) > 1e-9*last {
		t.Errorf("last activation spend %v, BudgetSpend %v", last, st.BudgetSpend)
	}
	seq, err := New(td.ParentSource(), td.ChildSource(), Options{
		Strategy: Adaptive, Parallelism: 1, CostBudget: 600, TraceActivations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seq.All(); err != nil {
		t.Fatal(err)
	}
	seqActs := seq.Activations()
	if len(seqActs) != len(acts) {
		t.Fatalf("%d activations, sequential %d", len(acts), len(seqActs))
	}
	for i := range acts {
		if acts[i].Spend != seqActs[i].Spend || acts[i].Reason != seqActs[i].Reason {
			t.Errorf("activation %d: spend %v (%s), sequential %v (%s)",
				i, acts[i].Spend, acts[i].Reason, seqActs[i].Spend, seqActs[i].Reason)
		}
	}
}

// TestParallelStrategiesMatchSequential runs every strategy at P=3 and
// P=1 over the same golden data and demands full match-set equality —
// including the adaptive strategy: the aggregate controller's window
// replay gives it the sequential controller's decisions
// activation-for-activation, so even switch placement is identical.
func TestParallelStrategiesMatchSequential(t *testing.T) {
	td := goldenData(t, 21, 300)
	for _, strat := range []Strategy{ExactOnly, ApproximateOnly, Adaptive} {
		seq := matchSet(t, td, Options{Strategy: strat, Parallelism: 1})
		par := matchSet(t, td, Options{Strategy: strat, Parallelism: 3})
		assertSameSet(t, seq, par, strat.String())
	}
}
