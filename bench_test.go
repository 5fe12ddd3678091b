package adaptivelink

// Benchmarks regenerating the paper's evaluation artifacts. One bench
// (or bench family) exists per table and figure:
//
//	Table 1  -> BenchmarkTable1_*        (per-operation operator costs)
//	Fig. 5   -> exercised via datagen (pattern layout is not a timing
//	            artifact; see internal/datagen tests and cmd/experiments -fig5)
//	Fig. 6   -> BenchmarkFig6_*          (adaptive run per test case,
//	            reporting g_rel, c_rel and e as custom metrics)
//	Fig. 7/8 -> BenchmarkStepCost_*      (per-state step costs, the w_i)
//	            BenchmarkSwitchCost_*    (transition costs, the v_i)
//	§4.2     -> BenchmarkTuningBest vs BenchmarkTuningWorst
//
// plus ablations for the design decisions called out in DESIGN.md:
// reverse-frequency probing, lazy index maintenance, and the O(n²)
// nested-loop baseline the SSHJoin index replaces.

import (
	"fmt"
	"testing"

	"adaptivelink/internal/adaptive"
	"adaptivelink/internal/blocking"
	"adaptivelink/internal/datagen"
	"adaptivelink/internal/exp"
	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/stats"
	"adaptivelink/internal/stream"
)

// benchKeys generates n location keys, memoised per size.
var benchKeyCache = map[int][]string{}

func benchKeys(n int) []string {
	if ks, ok := benchKeyCache[n]; ok {
		return ks
	}
	g := datagen.NewNameGen(1234)
	ks := make([]string, n)
	for i := range ks {
		ks[i] = g.Next()
	}
	benchKeyCache[n] = ks
	return ks
}

var benchDataCache = map[string]*datagen.Dataset{}

func benchDataset(b *testing.B, pattern datagen.Pattern, both bool, size int) *datagen.Dataset {
	key := fmt.Sprintf("%v-%v-%d", pattern, both, size)
	if ds, ok := benchDataCache[key]; ok {
		return ds
	}
	spec := datagen.Defaults(pattern, both)
	spec.ParentSize, spec.ChildSize = size, size
	ds, err := datagen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	benchDataCache[key] = ds
	return ds
}

// --- Table 1: per-operation costs -----------------------------------

func BenchmarkTable1_ObtainQGrams(b *testing.B) {
	keys := benchKeys(1000)
	ex := qgram.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ex.Grams(keys[i%len(keys)])
	}
}

func BenchmarkTable1_UpdateHashTable_SHJoin(b *testing.B) {
	keys := benchKeys(1000)
	b.ResetTimer()
	var idx *hashidx.ExactIndex
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 {
			idx = hashidx.NewExactIndex()
		}
		idx.Insert(i%len(keys), keys[i%len(keys)])
	}
}

func BenchmarkTable1_UpdateHashTable_SSHJoin(b *testing.B) {
	keys := benchKeys(1000)
	ex := qgram.New(3)
	b.ResetTimer()
	var idx *hashidx.QGramIndex
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 {
			idx = hashidx.NewQGramIndex(ex)
		}
		idx.Insert(i%len(keys), keys[i%len(keys)])
	}
}

func BenchmarkTable1_ComputeTt_SSHJoin(b *testing.B) {
	keys := benchKeys(4000)
	ex := qgram.New(3)
	idx := hashidx.NewQGramIndex(ex)
	for i, k := range keys {
		idx.Insert(i, k)
	}
	theta := join.DefaultTheta
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		g := len(ex.Grams(k))
		_ = idx.Probe(k, simfn.Jaccard.MinOverlap(g, theta))
	}
}

func BenchmarkTable1_FindMatches_SHJoin(b *testing.B) {
	keys := benchKeys(4000)
	idx := hashidx.NewExactIndex()
	for i, k := range keys {
		idx.Insert(i, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.Lookup(keys[i%len(keys)])
	}
}

func BenchmarkTable1_FindMatches_SSHJoin(b *testing.B) {
	keys := benchKeys(4000)
	ex := qgram.New(3)
	idx := hashidx.NewQGramIndex(ex)
	for i, k := range keys {
		idx.Insert(i, k)
	}
	theta := join.DefaultTheta
	// Pre-compute candidate sets; the timed loop is the verification.
	type probe struct {
		g     int
		cands []hashidx.Candidate
	}
	probes := make([]probe, len(keys))
	for i, k := range keys {
		g := len(ex.Grams(k))
		probes[i] = probe{g: g, cands: idx.Probe(k, simfn.Jaccard.MinOverlap(g, theta))}
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		p := probes[i%len(probes)]
		for _, c := range p.cands {
			sink += simfn.Jaccard.Coefficient(p.g, idx.GramSize(c.Ref), c.Overlap)
		}
	}
	_ = sink
}

// --- Fig. 6: adaptive run per test case ------------------------------

func benchFig6(b *testing.B, pattern datagen.Pattern, both bool) {
	const size = 1500
	ds := benchDataset(b, pattern, both, size)
	var last *join.Engine
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := join.New(join.Defaults(),
			stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := adaptive.Attach(e, stream.Left, ds.Parent.Len(), adaptive.DefaultParams()); err != nil {
			b.Fatal(err)
		}
		if err := e.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := e.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		e.Close()
		last = e
	}
	b.StopTimer()
	// Report the Fig. 6 metrics for the final run as custom benchmark
	// metrics (they are deterministic across iterations).
	st := last.Stats()
	w := metrics.PaperWeights()
	r := ds.TrueMatches()
	gc := metrics.Evaluate(st, st.Matches, r, ds.Child.Len(), st.Steps, w)
	b.ReportMetric(gc.Grel, "g_rel")
	b.ReportMetric(gc.Crel, "c_rel")
	b.ReportMetric(gc.Efficiency, "e")
}

func BenchmarkFig6_Uniform_ChildOnly(b *testing.B) { benchFig6(b, datagen.Uniform, false) }
func BenchmarkFig6_Uniform_Both(b *testing.B)      { benchFig6(b, datagen.Uniform, true) }
func BenchmarkFig6_InterleavedLow_ChildOnly(b *testing.B) {
	benchFig6(b, datagen.InterleavedLow, false)
}
func BenchmarkFig6_InterleavedLow_Both(b *testing.B) { benchFig6(b, datagen.InterleavedLow, true) }
func BenchmarkFig6_FewHigh_ChildOnly(b *testing.B)   { benchFig6(b, datagen.FewHighIntensity, false) }
func BenchmarkFig6_FewHigh_Both(b *testing.B)        { benchFig6(b, datagen.FewHighIntensity, true) }
func BenchmarkFig6_ManyHigh_ChildOnly(b *testing.B)  { benchFig6(b, datagen.ManyHighIntensity, false) }
func BenchmarkFig6_ManyHigh_Both(b *testing.B)       { benchFig6(b, datagen.ManyHighIntensity, true) }

// --- Figs. 7-8 foundations: per-state step costs (the w_i weights) ---

func benchStepCost(b *testing.B, state join.State) {
	const size = 1200
	ds := benchDataset(b, datagen.Uniform, false, size)
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		cfg := join.Defaults()
		cfg.Initial = state
		e, err := join.New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := e.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		e.Close()
		steps += e.Stats().Steps
	}
	b.StopTimer()
	if steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
}

func BenchmarkStepCost_EE(b *testing.B) { benchStepCost(b, join.LexRex) }
func BenchmarkStepCost_AE(b *testing.B) { benchStepCost(b, join.LapRex) }
func BenchmarkStepCost_EA(b *testing.B) { benchStepCost(b, join.LexRap) }
func BenchmarkStepCost_AA(b *testing.B) { benchStepCost(b, join.LapRap) }

// Switch cost: SetState at the scan midpoint, when the target indexes
// must catch up on half the input (the v_i weights).
func benchSwitchCost(b *testing.B, from, to join.State) {
	const size = 1200
	ds := benchDataset(b, datagen.Uniform, false, size)
	half := (ds.Parent.Len() + ds.Child.Len()) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := join.Defaults()
		cfg.Initial = from
		e, err := join.New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			b.Fatal(err)
		}
		e.OnStep = func(en *join.Engine) {
			if en.Step() == half {
				b.StartTimer()
				if _, err := en.SetState(to); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			}
		}
		if err := e.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := e.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		e.Close()
	}
}

func BenchmarkSwitchCost_IntoAA(b *testing.B) { benchSwitchCost(b, join.LexRex, join.LapRap) }
func BenchmarkSwitchCost_IntoEE(b *testing.B) { benchSwitchCost(b, join.LapRap, join.LexRex) }
func BenchmarkSwitchCost_IntoAE(b *testing.B) { benchSwitchCost(b, join.LexRex, join.LapRex) }
func BenchmarkSwitchCost_IntoEA(b *testing.B) { benchSwitchCost(b, join.LexRex, join.LexRap) }

// --- §4.2: tuning extremes -------------------------------------------

func benchTuning(b *testing.B, params adaptive.Params) {
	const size = 1200
	ds := benchDataset(b, datagen.FewHighIntensity, false, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := join.New(join.Defaults(),
			stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := adaptive.Attach(e, stream.Left, ds.Parent.Len(), params); err != nil {
			b.Fatal(err)
		}
		e.Open()
		for {
			_, ok, err := e.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		e.Close()
	}
}

func BenchmarkTuningBest(b *testing.B) { benchTuning(b, adaptive.DefaultParams()) }

func BenchmarkTuningSluggish(b *testing.B) {
	p := adaptive.DefaultParams()
	p.DeltaAdapt, p.ThetaOut = 500, 0.005 // reacts late, switches rarely
	benchTuning(b, p)
}

// --- Ablations --------------------------------------------------------

// Reverse-frequency probe optimisation (§2.2) vs naive candidate
// admission from every gram.
func BenchmarkAblation_OptimisedProbe(b *testing.B) {
	keys := benchKeys(4000)
	idx := hashidx.NewQGramIndex(qgram.New(3))
	for i, k := range keys {
		idx.Insert(i, k)
	}
	ex := qgram.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		g := len(ex.Grams(k))
		_ = idx.Probe(k, simfn.Jaccard.MinOverlap(g, join.DefaultTheta))
	}
}

func BenchmarkAblation_NaiveProbe(b *testing.B) {
	keys := benchKeys(4000)
	idx := hashidx.NewQGramIndex(qgram.New(3))
	for i, k := range keys {
		idx.Insert(i, k)
	}
	ex := qgram.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		g := len(ex.Grams(k))
		_ = idx.ProbeNaive(k, simfn.Jaccard.MinOverlap(g, join.DefaultTheta))
	}
}

// Lazy vs eager index maintenance (§2.3 rejects eager): the cost of an
// all-exact scan when every tuple additionally maintains the q-gram
// index it may never need.
func BenchmarkAblation_LazyExactScan(b *testing.B) {
	keys := benchKeys(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := hashidx.NewExactIndex()
		for ref, k := range keys {
			idx.Insert(ref, k)
			_ = idx.Lookup(k)
		}
	}
}

func BenchmarkAblation_EagerExactScan(b *testing.B) {
	keys := benchKeys(2000)
	ex := qgram.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := hashidx.NewExactIndex()
		qidx := hashidx.NewQGramIndex(ex)
		for ref, k := range keys {
			idx.Insert(ref, k)
			qidx.Insert(ref, k) // eager: maintained but unused
			_ = idx.Lookup(k)
		}
	}
}

// The O(n²) nested-loop similarity join that SSHJoin's inverted index
// replaces (the complexity §1 motivates blocking/indexing against).
func BenchmarkBaseline_NestedLoopApprox(b *testing.B) {
	ds := benchDataset(b, datagen.Uniform, false, 300)
	cfg := join.Defaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.NestedLoopApprox(cfg, ds.Parent, ds.Child); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaseline_SSHJoinIndexed(b *testing.B) {
	ds := benchDataset(b, datagen.Uniform, false, 300)
	cfg := join.Defaults()
	cfg.Initial = join.LapRap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := join.New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			b.Fatal(err)
		}
		e.Open()
		for {
			_, ok, err := e.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		e.Close()
	}
}

// Cost-budget extension: completeness capped by budget; cheaper runs
// for smaller budgets (compare ns/op across the family).
func benchBudget(b *testing.B, budget float64) {
	ds := benchDataset(b, datagen.Uniform, false, 1200)
	w := metrics.PaperWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := join.New(join.Defaults(),
			stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			b.Fatal(err)
		}
		ctl, err := adaptive.Attach(e, stream.Left, ds.Parent.Len(), adaptive.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if budget > 0 {
			if err := ctl.EnableCostBudget(w, budget); err != nil {
				b.Fatal(err)
			}
		}
		e.Open()
		for {
			_, ok, err := e.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		e.Close()
	}
}

func BenchmarkBudget_Unlimited(b *testing.B) { benchBudget(b, 0) }
func BenchmarkBudget_20k(b *testing.B)       { benchBudget(b, 20_000) }
func BenchmarkBudget_5k(b *testing.B)        { benchBudget(b, 5_000) }

// Offline comparators: blocking and SNM over the same corpus as
// BenchmarkBaseline_SSHJoinIndexed (they see all data in advance).
func BenchmarkOffline_TokenBlocking(b *testing.B) {
	ds := benchDataset(b, datagen.Uniform, false, 300)
	cfg := join.Defaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blocking.Link(cfg, ds.Parent, ds.Child, blocking.TokenBlocker()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOffline_SortedNeighborhood(b *testing.B) {
	ds := benchDataset(b, datagen.Uniform, false, 300)
	cfg := join.Defaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blocking.SortedNeighborhood(cfg, ds.Parent, ds.Child, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Stream-window retention: eviction bookkeeping overhead on the exact
// path (compare with BenchmarkStepCost_EE).
func BenchmarkWindowedExactScan(b *testing.B) {
	ds := benchDataset(b, datagen.Uniform, false, 1200)
	cfg := join.Defaults()
	cfg.RetainWindow = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := join.New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
		if err != nil {
			b.Fatal(err)
		}
		e.Open()
		for {
			_, ok, err := e.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		e.Close()
	}
}

// Statistical substrate: the binomial tail test runs at every
// activation, so its cost bounds how small δadapt can usefully be.
func BenchmarkBinomialTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 4000 + i%100
		_ = stats.BinomialCDF(n/2-50, n, 0.5)
	}
}

// Public API overhead: the facade's adaptive join end to end.
func BenchmarkPublicAPI_AdaptiveJoin(b *testing.B) {
	td, err := GenerateTestData(77, 800, 800, PatternFewHigh, 0.10, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := New(td.ParentSource(), td.ChildSource(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.All(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Partition-parallel executor: 1 shard vs P shards ----------------
//
// The workload is a ≥50k-tuple datagen pair per side; the comparison
// BenchmarkParallel*_P1 vs _P4 is the scale-out measurement recorded in
// CHANGES.md. Throughput is reported as tuples/s (input tuples
// consumed). On a single-core host the P>1 numbers mostly show the
// coordination overhead; the speedup target needs ≥4 hardware threads.

var benchTestDataCache = map[string]*TestData{}

func benchTestData(b *testing.B, seed int64, size int, pattern Pattern) *TestData {
	key := fmt.Sprintf("%d-%d-%v", seed, size, pattern)
	if td, ok := benchTestDataCache[key]; ok {
		return td
	}
	td, err := GenerateTestData(seed, size, size, pattern, 0.10, false)
	if err != nil {
		b.Fatal(err)
	}
	benchTestDataCache[key] = td
	return td
}

func benchParallelJoin(b *testing.B, size, par int, strategy Strategy) {
	benchParallelJoinOpts(b, size, Options{Strategy: strategy, Parallelism: par})
}

func benchParallelJoinOpts(b *testing.B, size int, opts Options) {
	td := benchTestData(b, 55, size, PatternUniform)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := New(td.ParentSource(), td.ChildSource(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := j.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			_, ok, err := j.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tuples := float64(2*size) * float64(b.N)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(tuples/s, "tuples/s")
	}
}

func BenchmarkParallelExact_50k_P1(b *testing.B) { benchParallelJoin(b, 50_000, 1, ExactOnly) }
func BenchmarkParallelExact_50k_P2(b *testing.B) { benchParallelJoin(b, 50_000, 2, ExactOnly) }
func BenchmarkParallelExact_50k_P4(b *testing.B) { benchParallelJoin(b, 50_000, 4, ExactOnly) }

// The adaptive and approximate-only strategies spend long stretches in
// q-gram probing, orders of magnitude costlier per tuple; sized down so
// the bench smoke stays tractable. Per-tuple cost is size-dependent, so
// compare P variants within a family only.
func BenchmarkParallelAdaptive_5k_P1(b *testing.B) { benchParallelJoin(b, 5_000, 1, Adaptive) }
func BenchmarkParallelAdaptive_5k_P4(b *testing.B) { benchParallelJoin(b, 5_000, 4, Adaptive) }

func BenchmarkParallelApprox_3k_P1(b *testing.B) { benchParallelJoin(b, 3_000, 1, ApproximateOnly) }
func BenchmarkParallelApprox_3k_P4(b *testing.B) { benchParallelJoin(b, 3_000, 4, ApproximateOnly) }

// Sliding-window and cost-budget runs on the parallel path: the window
// bounds index memory (global-clock eviction + consistent-cut
// compaction), the budget bounds adaptive spend via the aggregated
// counter. Compare against the corresponding unwindowed family member
// to read the safety valves' overhead.
func BenchmarkParallelWindowedExact_50k_P1(b *testing.B) {
	benchParallelJoinOpts(b, 50_000, Options{Strategy: ExactOnly, Parallelism: 1, RetainWindow: 1_000})
}
func BenchmarkParallelWindowedExact_50k_P4(b *testing.B) {
	benchParallelJoinOpts(b, 50_000, Options{Strategy: ExactOnly, Parallelism: 4, RetainWindow: 1_000})
}
func BenchmarkParallelWindowedAdaptive_5k_P4(b *testing.B) {
	benchParallelJoinOpts(b, 5_000, Options{Strategy: Adaptive, Parallelism: 4, RetainWindow: 1_000})
}
func BenchmarkParallelBudgetAdaptive_5k_P4(b *testing.B) {
	benchParallelJoinOpts(b, 5_000, Options{Strategy: Adaptive, Parallelism: 4, CostBudget: 50_000})
}

// Experiment harness entry point at small scale (the full-scale run is
// `go run ./cmd/experiments -all`).
func BenchmarkExpRunCase(b *testing.B) {
	cases := exp.PaperTestCases(1, 800, 800)
	rc := exp.DefaultRunConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunCase(cases[i%len(cases)], rc); err != nil {
			b.Fatal(err)
		}
	}
}
