package pjoin

import (
	"fmt"
	"sort"
	"testing"

	"adaptivelink/internal/datagen"
	"adaptivelink/internal/join"
	"adaptivelink/internal/stream"
)

// testDataset generates a fixed-seed perturbed parent/child pair small
// enough for the all-approximate states to stay fast.
func testDataset(t testing.TB, both bool) *datagen.Dataset {
	t.Helper()
	spec := datagen.Defaults(datagen.FewHighIntensity, both)
	spec.Seed = 42
	spec.ParentSize, spec.ChildSize = 400, 400
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// signature renders the order-insensitive identity of a match: the
// global tuple positions plus everything the engines assert about the
// pair. Step and shard are execution artifacts and excluded.
func signature(lseq, rseq int, sim float64, exact bool, probe stream.Side, mode join.Mode, attr join.Attribution) string {
	return fmt.Sprintf("%d|%d|%.9f|%v|%v|%v|%v", lseq, rseq, sim, exact, probe, mode, attr)
}

// runSequential drains a sequential engine and returns the sorted match
// signatures.
func runSequential(t testing.TB, cfg join.Config, ds *datagen.Dataset) []string {
	t.Helper()
	sigs, _ := drainSequential(t, cfg, ds)
	return sigs
}

// drainSequential drains a sequential engine and returns the sorted
// match signatures plus the drained (closed) engine, for its counters.
// Store refs equal global arrival order because the single engine sees
// the whole scan.
func drainSequential(t testing.TB, cfg join.Config, ds *datagen.Dataset) ([]string, *join.Engine) {
	t.Helper()
	e, err := join.New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	var sigs []string
	for {
		m, ok, err := e.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		sigs = append(sigs, signature(m.LeftRef, m.RightRef, m.Similarity, m.Exact, m.ProbeSide, m.ProbeMode, m.Attribution))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(sigs)
	return sigs, e
}

// runParallel drains an executor and returns the sorted match
// signatures plus the final stats.
func runParallel(t testing.TB, cfg Config, ds *datagen.Dataset) ([]string, Stats) {
	t.Helper()
	ex, err := New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	var sigs []string
	for {
		m, ok, err := ex.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		sigs = append(sigs, signature(m.LeftSeq, m.RightSeq, m.Similarity, m.Exact, m.ProbeSide, m.ProbeMode, m.Attribution))
	}
	st := ex.Stats()
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(sigs)
	return sigs, st
}

func diffSigs(t *testing.T, want, got []string) {
	t.Helper()
	if len(want) == len(got) {
		equal := true
		for i := range want {
			if want[i] != got[i] {
				equal = false
				break
			}
		}
		if equal {
			return
		}
	}
	t.Errorf("match sets differ: sequential %d matches, parallel %d", len(want), len(got))
	set := func(ss []string) map[string]bool {
		m := make(map[string]bool, len(ss))
		for _, s := range ss {
			m[s] = true
		}
		return m
	}
	ws, gs := set(want), set(got)
	shown := 0
	for s := range ws {
		if !gs[s] && shown < 5 {
			t.Errorf("  missing from parallel: %s", s)
			shown++
		}
	}
	shown = 0
	for s := range gs {
		if !ws[s] && shown < 5 {
			t.Errorf("  extra in parallel:    %s", s)
			shown++
		}
	}
}

// TestParityAllStates is the golden parallel/sequential parity check of
// the Fig. 4 state machine: for each fixed processor state, a 4-shard
// executor must produce exactly the same match set — including
// similarity, exactness, probe metadata and variant attribution — as the
// sequential engine over the same fixed-seed inputs.
func TestParityAllStates(t *testing.T) {
	for _, both := range []bool{false, true} {
		ds := testDataset(t, both)
		for _, state := range join.AllStates {
			name := fmt.Sprintf("%s/both=%v", state.Short(), both)
			t.Run(name, func(t *testing.T) {
				cfg := join.Defaults()
				cfg.Initial = state
				want := runSequential(t, cfg, ds)
				got, st := runParallel(t, Config{Join: cfg, Shards: 4}, ds)
				diffSigs(t, want, got)
				if st.Matches != len(got) {
					t.Errorf("stats report %d matches, stream delivered %d", st.Matches, len(got))
				}
				if st.Read[0] != ds.Parent.Len() || st.Read[1] != ds.Child.Len() {
					t.Errorf("read counts %v, want [%d %d]", st.Read, ds.Parent.Len(), ds.Child.Len())
				}
				if n := st.Read[0] + st.Read[1]; st.Steps != n {
					t.Errorf("shard steps %d, want one storing step per dispatched tuple (%d)", st.Steps, n)
				}
			})
		}
	}
}

// TestParityHomeOnlyExact checks the dispatch the executor derives for a
// join that can never probe approximately (no controller, initial state
// lex/rex): every tuple goes to its home shard alone, no shard is
// offered a probe, and hash-by-key partitioning is already lossless
// against the sequential all-exact engine.
func TestParityHomeOnlyExact(t *testing.T) {
	ds := testDataset(t, true)
	cfg := join.Defaults() // Initial = LexRex
	want := runSequential(t, cfg, ds)
	got, st := runParallel(t, Config{Join: cfg, Shards: 4}, ds)
	diffSigs(t, want, got)
	if st.ProbeOffers != 0 {
		t.Errorf("%d probe-only offers on an all-exact join, want 0", st.ProbeOffers)
	}
	if st.Routed != st.Read {
		t.Errorf("stored %v tuples, read %v: want one stored copy per tuple", st.Routed, st.Read)
	}
	l, r := stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child)
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"lex/rex, no controller", Config{Join: cfg, Shards: 4}, true},
		{"lex/rex under a controller", Config{Join: cfg, Shards: 4, Controller: newSwitchStorm(4, 16)}, false},
		{"lap/rex, no controller", Config{Join: withInitial(cfg, join.LapRex), Shards: 4}, false},
	} {
		ex, err := New(tc.cfg, l, r)
		if err != nil {
			t.Fatal(err)
		}
		if ex.homeOnly != tc.want {
			t.Errorf("%s: home-only dispatch = %v, want %v", tc.name, ex.homeOnly, tc.want)
		}
	}
}

func withInitial(cfg join.Config, s join.State) join.Config {
	cfg.Initial = s
	return cfg
}

// TestParityShardCounts verifies parity is not an artifact of a lucky
// shard count.
func TestParityShardCounts(t *testing.T) {
	ds := testDataset(t, false)
	cfg := withInitial(join.Defaults(), join.LapRap)
	want := runSequential(t, cfg, ds)
	for _, p := range []int{1, 2, 3, 4, 8} {
		got, _ := runParallel(t, Config{Join: cfg, Shards: p}, ds)
		if len(got) != len(want) {
			t.Errorf("P=%d: %d matches, want %d", p, len(got), len(want))
		}
		diffSigs(t, want, got)
	}
}

// TestPlacementPin pins the placement rule's deterministic proxies in
// all four processor states, with and without a sliding window: every
// tuple is stored in exactly one shard (stored copies per input tuple =
// 1.00 at any P), every approximately probing tuple is offered to the
// other P-1 shards and no exactly probing one is, and the shards
// together hold exactly the index entries one sequential engine holds.
func TestPlacementPin(t *testing.T) {
	ds := testDataset(t, true)
	for _, window := range []int{0, 60} {
		for _, state := range join.AllStates {
			cfg := withInitial(join.Defaults(), state)
			cfg.RetainWindow = window
			_, seq := drainSequential(t, cfg, ds)
			space, seqStats := seq.Space(), seq.Stats()
			for _, p := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("%s/w=%d/P=%d", state.Short(), window, p), func(t *testing.T) {
					_, st := runParallel(t, Config{Join: cfg, Shards: p}, ds)
					if st.Routed != st.Read || st.Read != seqStats.Read {
						t.Errorf("stored %v tuples of %v read (sequential read %v): want one stored copy per tuple",
							st.Routed, st.Read, seqStats.Read)
					}
					if st.Steps != seqStats.Steps || st.StepsInState != seqStats.StepsInState {
						t.Errorf("storing steps %d %v, sequential %d %v", st.Steps, st.StepsInState,
							seqStats.Steps, seqStats.StepsInState)
					}
					offers := 0
					for _, side := range []stream.Side{stream.Left, stream.Right} {
						if state.Mode(side) == join.Approx {
							offers += (p - 1) * st.Read[side]
						}
					}
					if st.ProbeOffers != offers {
						t.Errorf("%d probe-only offers, want %d", st.ProbeOffers, offers)
					}
					if window == 0 {
						if st.ExactEntries != space.ExactEntries || st.QGramEntries != space.QGramEntries {
							t.Errorf("shards hold %v exact + %v q-gram entries, the sequential engine %v + %v",
								st.ExactEntries, st.QGramEntries, space.ExactEntries, space.QGramEntries)
						}
						return
					}
					// Shards compact on their own schedule, so under a window
					// the live counts differ by what each has dropped so far;
					// live + dropped is every entry ever indexed.
					sum := func(ex, qg [2]int, dropped int) int { return ex[0] + ex[1] + qg[0] + qg[1] + dropped }
					got := sum(st.ExactEntries, st.QGramEntries, st.IndexEntriesDropped)
					want := sum(space.ExactEntries, space.QGramEntries, seqStats.IndexEntriesDropped)
					if got != want {
						t.Errorf("shards indexed %d entries (live + dropped), the sequential engine %d", got, want)
					}
				})
			}
		}
	}
}

// switchStorm is a Controller that rebroadcasts a different target state
// every few dispatches, exercising concurrent mode switches under the
// race detector. It embeds no statistics — it only stresses Sync's
// quiescent-point switching.
type switchStorm struct {
	period    int
	dispatch  int
	gen       int
	target    join.State
	mu        chan struct{} // 1-token mutex usable from multiple goroutines
	applied   []int
	switches  int
	catchUp   int
	stateRing []join.State
}

func newSwitchStorm(shards, period int) *switchStorm {
	s := &switchStorm{
		period:    period,
		target:    join.LexRex,
		mu:        make(chan struct{}, 1),
		applied:   make([]int, shards),
		stateRing: []join.State{join.LapRap, join.LexRex, join.LapRex, join.LexRap},
	}
	s.mu <- struct{}{}
	return s
}

func (s *switchStorm) NoteDispatch(side stream.Side) bool {
	<-s.mu
	s.dispatch++
	barrier := s.dispatch%s.period == 0
	s.mu <- struct{}{}
	return barrier
}

func (s *switchStorm) NoteMatch(step int, exact bool, attr join.Attribution) {}

// Activate rotates the broadcast target at every completed barrier, so
// shards flip states throughout the run.
func (s *switchStorm) Activate() {
	<-s.mu
	s.gen++
	s.target = s.stateRing[s.gen%len(s.stateRing)]
	s.mu <- struct{}{}
}

func (s *switchStorm) Sync(shard int, e *join.Engine) {
	<-s.mu
	gen, target := s.gen, s.target
	s.mu <- struct{}{}
	if gen == s.applied[shard] {
		return
	}
	s.applied[shard] = gen
	if target == e.State() {
		return
	}
	n, err := e.SetState(target)
	if err != nil {
		panic(err)
	}
	<-s.mu
	s.switches++
	s.catchUp += n
	s.mu <- struct{}{}
}

type pairKey struct{ l, r int }

// TestConcurrentSwitchStorm drives a 4-shard executor while a controller
// rebroadcasts state changes every 16 dispatched tuples. Run under
// -race (the CI does) this exercises the splitter/worker/merger
// synchronization; functionally it asserts the invariant that holds in
// every state: all exact pairs are found, exactly once, regardless of
// switch timing.
func TestConcurrentSwitchStorm(t *testing.T) {
	ds := testDataset(t, true)
	cfg := join.Defaults()
	storm := newSwitchStorm(4, 16)

	ex, err := New(Config{Join: cfg, Shards: 4, Controller: storm, buffer: 8},
		stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	seenPairs := make(map[pairKey]bool)
	exactPairs := make(map[pairKey]bool)
	for {
		m, ok, err := ex.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		k := pairKey{m.LeftSeq, m.RightSeq}
		if seenPairs[k] {
			t.Fatalf("duplicate pair delivered: %v", k)
		}
		seenPairs[k] = true
		if m.Exact {
			exactPairs[k] = true
		}
	}
	st := ex.Stats()
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}

	// Invariant independent of switch timing: every key-equal pair is
	// found in every state (exact probes read a complete exact index;
	// approximate probes admit equal keys at full overlap), so the storm
	// run's exact pairs must equal the sequential lex/rex result.
	e, err := join.New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	wantExact := 0
	for {
		m, ok, err := e.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		wantExact++
		if !exactPairs[pairKey{m.LeftRef, m.RightRef}] {
			t.Errorf("exact pair (%d,%d) missing from storm run", m.LeftRef, m.RightRef)
		}
	}
	e.Close()
	if len(exactPairs) != wantExact {
		t.Errorf("storm run found %d exact pairs, want %d", len(exactPairs), wantExact)
	}
	if st.Switches == 0 {
		t.Error("storm run recorded no shard switches")
	}
}

// TestExecutorLifecycle checks the iterator protocol corners: Next
// before Open fails, Close mid-stream cancels the pipeline without
// deadlock, double Close fails.
func TestExecutorLifecycle(t *testing.T) {
	ds := testDataset(t, false)
	cfg := Config{Join: join.Defaults(), Shards: 3, buffer: 4}
	ex, err := New(cfg, stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.Next(); err == nil {
		t.Error("Next before Open succeeded")
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	// Pull a handful of matches, then abandon the stream.
	for i := 0; i < 3; i++ {
		if _, ok, err := ex.Next(); err != nil || !ok {
			t.Fatalf("early Next: ok=%v err=%v", ok, err)
		}
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	// Even a cancelled run must surface the shards' partial accounting.
	if st := ex.Stats(); st.Steps == 0 {
		t.Error("Stats() after early Close lost the shard counters")
	}
	if err := ex.Close(); err == nil {
		t.Error("double Close succeeded")
	}
}

// TestExecutorConfigErrors checks constructor validation.
func TestExecutorConfigErrors(t *testing.T) {
	ds := testDataset(t, false)
	l, r := stream.FromRelation(ds.Parent), stream.FromRelation(ds.Child)
	if _, err := New(Config{Join: join.Defaults(), Shards: 0}, l, r); err == nil {
		t.Error("Shards=0 accepted")
	}
	if _, err := New(Config{Join: join.Defaults(), Shards: 2}, nil, r); err == nil {
		t.Error("nil source accepted")
	}
	wcfg := join.Defaults()
	wcfg.RetainWindow = -1
	if _, err := New(Config{Join: wcfg, Shards: 2}, l, r); err == nil {
		t.Error("negative RetainWindow accepted")
	}
}
