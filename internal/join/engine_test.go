package join

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"adaptivelink/internal/iterator"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/stream"
)

// run drives an engine to exhaustion and returns all matches.
func run(t *testing.T, e *Engine) []Match {
	t.Helper()
	out, err := iterator.Drain[Match](e, nil)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	return out
}

func mkEngine(t *testing.T, cfg Config, left, right *relation.Relation) *Engine {
	t.Helper()
	e, err := New(cfg, stream.FromRelation(left), stream.FromRelation(right), nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// pinned builds an engine fixed in state st throughout: LexRex is the
// paper's pure exact operator SHJoin (§2.1), LapRap its pure
// approximate operator SSHJoin (§2.2).
func pinned(cfg Config, st State, left, right *relation.Relation, il stream.Interleaver) (*Engine, error) {
	cfg.Initial = st
	return New(cfg, stream.FromRelation(left), stream.FromRelation(right), il)
}

func TestModeStateStrings(t *testing.T) {
	if Exact.String() != "ex" || Approx.String() != "ap" {
		t.Error("Mode.String wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown Mode.String wrong")
	}
	if LexRex.String() != "lex/rex" || LapRap.String() != "lap/rap" || LapRex.String() != "lap/rex" {
		t.Error("State.String wrong")
	}
	if LexRex.Short() != "EE" || LapRex.Short() != "AE" || LexRap.Short() != "EA" || LapRap.Short() != "AA" {
		t.Error("State.Short wrong")
	}
	for i, s := range AllStates {
		if s.Index() != i {
			t.Errorf("Index(%v) = %d, want %d", s, s.Index(), i)
		}
	}
}

func TestStateModeAccessors(t *testing.T) {
	s := LapRex
	if s.Mode(stream.Left) != Approx || s.Mode(stream.Right) != Exact {
		t.Error("Mode accessor wrong")
	}
}

func TestAttributionBlames(t *testing.T) {
	if !AttrBoth.Blames(stream.Left) || !AttrBoth.Blames(stream.Right) {
		t.Error("AttrBoth should blame both")
	}
	if !AttrLeft.Blames(stream.Left) || AttrLeft.Blames(stream.Right) {
		t.Error("AttrLeft wrong")
	}
	if AttrNone.Blames(stream.Left) || AttrNone.Blames(stream.Right) {
		t.Error("AttrNone should blame nobody")
	}
	if AttrLeft.String() != "left" || AttrNone.String() != "none" || AttrBoth.String() != "both" {
		t.Error("Attribution.String wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Errorf("Defaults invalid: %v", err)
	}
	bad := []Config{
		{Q: 0, Theta: 0.5, Initial: LexRex},
		{Q: 3, Theta: 0, Initial: LexRex},
		{Q: 3, Theta: 1.5, Initial: LexRex},
		{Q: 3, Theta: 0.5, Measure: 99, Initial: LexRex},
		{Q: 3, Theta: 0.5, Initial: State{Mode(5), Exact}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestNewRejectsNilSource(t *testing.T) {
	if _, err := New(Defaults(), nil, nil, nil); err == nil {
		t.Error("New accepted nil sources")
	}
}

func TestSHJoinMatchesOracle(t *testing.T) {
	left := relation.FromKeys("L", "rome", "milan", "genoa", "rome", "turin")
	right := relation.FromKeys("R", "milan", "rome", "naples", "rome")
	e, err := pinned(Defaults(), LexRex, left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := PairsOf(run(t, e))
	want := NestedLoopExact(left, right)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SHJoin = %v, want %v", got, want)
	}
	// 2 left romes x 2 right romes + 1 milan pair = 5.
	if len(got) != 5 {
		t.Errorf("got %d pairs, want 5", len(got))
	}
}

func TestSHJoinFlagsSet(t *testing.T) {
	left := relation.FromKeys("L", "a", "b")
	right := relation.FromKeys("R", "a", "c")
	e, _ := pinned(Defaults(), LexRex, left, right, nil)
	run(t, e)
	if !e.MatchedFlag(stream.Left, 0) || !e.MatchedFlag(stream.Right, 0) {
		t.Error("matched tuples not flagged")
	}
	if e.MatchedFlag(stream.Left, 1) || e.MatchedFlag(stream.Right, 1) {
		t.Error("unmatched tuples flagged")
	}
}

func TestSSHJoinFindsVariants(t *testing.T) {
	left := relation.FromKeys("L",
		"TAA BZ SANTA CRISTINA VALGARDENA",
		"LIG GE GENOVA CORNIGLIANO",
	)
	right := relation.FromKeys("R",
		"TAA BZ SANTA CRISTINx VALGARDENA", // variant of left[0]
		"LIG GE GENOVA CORNIGLIANO",        // exact duplicate of left[1]
		"PIE TO TORINO MIRAFIORI",          // matches nothing
	)
	cfg := Defaults()
	e, err := pinned(cfg, LapRap, left, right, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := PairsOf(run(t, e))
	want, err := NestedLoopApprox(cfg, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SSHJoin = %v, want %v", got, want)
	}
	if len(got) != 2 {
		t.Fatalf("got %d pairs, want 2 (variant + exact)", len(got))
	}
	if got[0].Exact || got[0].Similarity < cfg.Theta {
		t.Errorf("variant pair = %+v", got[0])
	}
	if !got[1].Exact || got[1].Similarity != 1 {
		t.Errorf("exact pair = %+v", got[1])
	}
}

func TestSSHJoinSupersetOfExact(t *testing.T) {
	left := relation.FromKeys("L", "alpha centauri", "beta pictoris", "gamma draconis")
	right := relation.FromKeys("R", "alpha centauri", "beta pictoris", "delta cephei")
	cfg := Defaults()
	eh, _ := pinned(cfg, LapRap, left, right, nil)
	approx := PairsOf(run(t, eh))
	exact := NestedLoopExact(left, right)
	if !containsAll(approx, exact) {
		t.Errorf("approx result %v does not contain exact result %v", approx, exact)
	}
}

func TestEngineMatchMetadata(t *testing.T) {
	left := relation.FromKeys("L", "abcdefghij")
	right := relation.FromKeys("R", "abcdefghij")
	e := mkEngine(t, Defaults(), left, right)
	ms := run(t, e)
	if len(ms) != 1 {
		t.Fatalf("got %d matches", len(ms))
	}
	m := ms[0]
	if m.LeftRef != 0 || m.RightRef != 0 || m.LeftKey != "abcdefghij" || m.RightKey != "abcdefghij" {
		t.Errorf("refs/keys wrong: %+v", m)
	}
	if !m.Exact || m.Similarity != 1 || m.Attribution != AttrNone {
		t.Errorf("exact-match metadata wrong: %+v", m)
	}
	if m.ProbeSide != stream.Right {
		t.Errorf("probe side = %v, want right (arrived second under round-robin)", m.ProbeSide)
	}
	if m.ProbeMode != Exact {
		t.Errorf("probe mode = %v", m.ProbeMode)
	}
}

func TestEngineStatsAccounting(t *testing.T) {
	left := relation.FromKeys("L", "a1a1a1", "b2b2b2", "c3c3c3")
	right := relation.FromKeys("R", "a1a1a1", "zzzzzz")
	e := mkEngine(t, Defaults(), left, right)
	run(t, e)
	st := e.Stats()
	if st.Steps != 5 || st.Read[stream.Left] != 3 || st.Read[stream.Right] != 2 {
		t.Errorf("steps/read wrong: %+v", st)
	}
	if st.Matches != 1 || st.ExactMatches != 1 || st.ApproxMatches != 0 {
		t.Errorf("match counts wrong: %+v", st)
	}
	if st.StepsInState[LexRex.Index()] != 5 {
		t.Errorf("steps in lex/rex = %d, want 5", st.StepsInState[LexRex.Index()])
	}
	if st.Switches != 0 || st.CatchUpTuples != 0 {
		t.Errorf("unexpected switches: %+v", st)
	}
}

func TestAttributionVariantInRight(t *testing.T) {
	// §3.3 scenario: t1 (right) matches t2 (left) exactly, then t3
	// (right) matches t2 approximately => t3 is the variant => AttrRight.
	left := relation.FromKeys("L", "VEN VE VENEZIA MESTRE CENTRO")
	right := relation.FromKeys("R",
		"VEN VE VENEZIA MESTRE CENTRO", // exact match, sets t2's flag
		"VEN VE VENEZIA MESTRE CENTRx", // variant
	)
	cfg := Defaults()
	cfg.Initial = LapRap
	e := mkEngine(t, cfg, left, right)
	ms := run(t, e)
	if len(ms) != 2 {
		t.Fatalf("got %d matches, want 2", len(ms))
	}
	var variant *Match
	for i := range ms {
		if !ms[i].Exact {
			variant = &ms[i]
		}
	}
	if variant == nil {
		t.Fatal("no approximate match found")
	}
	if variant.Attribution != AttrRight {
		t.Errorf("attribution = %v, want right", variant.Attribution)
	}
}

func TestAttributionUnknownDefaultsToBoth(t *testing.T) {
	// The stored tuple never matched exactly, so no evidence: AttrBoth.
	left := relation.FromKeys("L", "VEN VE VENEZIA MESTRE CENTRO")
	right := relation.FromKeys("R", "VEN VE VENEZIA MESTRE CENTRx")
	cfg := Defaults()
	cfg.Initial = LapRap
	e := mkEngine(t, cfg, left, right)
	ms := run(t, e)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	if ms[0].Attribution != AttrBoth {
		t.Errorf("attribution = %v, want both", ms[0].Attribution)
	}
}

func TestSetStateCatchesUpLaggingIndex(t *testing.T) {
	left := relation.FromKeys("L", "aaaaaa1", "bbbbbb2", "cccccc3", "dddddd4")
	right := relation.FromKeys("R", "aaaaaa1", "bbbbbb2", "cccccc3", "dddddd4")
	e := mkEngine(t, Defaults(), left, right)
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	// Consume the first exact match, so some tuples are stored.
	if _, ok, err := e.Next(); !ok || err != nil {
		t.Fatalf("first match: ok=%v err=%v", ok, err)
	}
	readBefore := e.Stats().Read
	caught, err := e.SetState(LapRap)
	if err != nil {
		t.Fatal(err)
	}
	// Both sides' q-gram indexes were empty and must absorb every tuple
	// read so far.
	want := readBefore[stream.Left] + readBefore[stream.Right]
	if caught != want {
		t.Errorf("caught up %d tuples, want %d", caught, want)
	}
	st := e.Stats()
	if st.Switches != 1 || st.TransitionsInto[LapRap.Index()] != 1 || st.CatchUpTuples != caught {
		t.Errorf("switch accounting wrong: %+v", st)
	}
	e.Close()
}

func TestSetStateSelfLoopIsFree(t *testing.T) {
	e := mkEngine(t, Defaults(), relation.FromKeys("L", "a"), relation.FromKeys("R", "a"))
	caught, err := e.SetState(LexRex)
	if err != nil || caught != 0 {
		t.Errorf("self transition: caught=%d err=%v", caught, err)
	}
	if e.Stats().Switches != 0 {
		t.Error("self transition counted as switch")
	}
}

func TestSetStateRejectsInvalid(t *testing.T) {
	e := mkEngine(t, Defaults(), relation.FromKeys("L", "a"), relation.FromKeys("R", "a"))
	if _, err := e.SetState(State{Mode(7), Exact}); err == nil {
		t.Error("invalid state accepted")
	}
}

func TestPartialSwitchOnlyCatchesUpChangedSide(t *testing.T) {
	left := relation.FromKeys("L", "aaaaaa", "bbbbbb")
	right := relation.FromKeys("R", "aaaaaa", "bbbbbb")
	e := mkEngine(t, Defaults(), left, right)
	e.Open()
	iterator.Drain[Match](e, nil) // exhaust; 4 tuples stored
	// lex/rex -> lap/rex: only left probes change, so only the RIGHT
	// q-gram index must catch up (2 right tuples).
	caught, err := e.SetState(LapRex)
	if err != nil {
		t.Fatal(err)
	}
	if caught != 2 {
		t.Errorf("caught up %d, want 2 (right side only)", caught)
	}
}

func TestOnStepFiresPerStep(t *testing.T) {
	left := relation.FromKeys("L", "a", "b", "c")
	right := relation.FromKeys("R", "x", "y")
	e := mkEngine(t, Defaults(), left, right)
	var steps []int
	e.OnStep = func(en *Engine) { steps = append(steps, en.Step()) }
	run(t, e)
	if len(steps) != 5 {
		t.Fatalf("hook fired %d times, want 5", len(steps))
	}
	for i, s := range steps {
		if s != i+1 {
			t.Errorf("hook %d saw step %d", i, s)
		}
	}
}

func TestOnMatchFiresAtComputationTime(t *testing.T) {
	left := relation.FromKeys("L", "samekey")
	right := relation.FromKeys("R", "samekey")
	e := mkEngine(t, Defaults(), left, right)
	var seen []Match
	e.OnMatch = func(m Match) { seen = append(seen, m) }
	got := run(t, e)
	if len(seen) != 1 || len(got) != 1 {
		t.Fatalf("OnMatch saw %d, Next delivered %d", len(seen), len(got))
	}
	if !reflect.DeepEqual(seen[0], got[0]) {
		t.Errorf("hook match %+v != delivered %+v", seen[0], got[0])
	}
}

func TestSwitchFromHookIsSafe(t *testing.T) {
	// Switch to lap/rap mid-run from the step hook; every exact pair must
	// still be found and the result must be duplicate-free.
	left := relation.FromKeys("L", "k0k0k0", "k1k1k1", "k2k2k2", "k3k3k3", "k4k4k4")
	right := relation.FromKeys("R", "k0k0k0", "k1k1k1", "k2k2k2", "k3k3k3", "k4k4k4")
	e := mkEngine(t, Defaults(), left, right)
	e.OnStep = func(en *Engine) {
		if en.Step() == 4 {
			if _, err := en.SetState(LapRap); err != nil {
				t.Errorf("SetState from hook: %v", err)
			}
		}
	}
	got := PairsOf(run(t, e))
	want := NestedLoopExact(left, right)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after mid-run switch got %v, want %v", got, want)
	}
}

func TestHybridRecoversVariantsAfterSwitch(t *testing.T) {
	// Variants arriving after the switch to lap/rap must match stored
	// tuples from the exact phase (footnote 3: past variants can be
	// matched too, because catch-up indexes all stored tuples).
	left := relation.FromKeys("L",
		"LOM MI MILANO DUOMO NORD",
		"LOM MI MILANO NAVIGLI SUD",
		"LOM MI MILANO BICOCCA EST",
	)
	right := relation.FromKeys("R",
		"LOM MI MILANO DUOMO NORD",   // exact while in lex/rex
		"LOM MI MILANO NAVIGLI SUx",  // variant of left[1]
		"LOM MI MILANO BICOCCA ESTx", // variant of left[2]
	)
	e := mkEngine(t, Defaults(), left, right)
	e.OnStep = func(en *Engine) {
		if en.Step() == 3 { // after l0,r0,l1 processed, before r1 (the variant) probes
			en.SetState(LapRap)
		}
	}
	got := PairsOf(run(t, e))
	if len(got) != 3 {
		t.Fatalf("got %d pairs, want 3: %v", len(got), got)
	}
}

func TestEngineIteratorLifecycle(t *testing.T) {
	e := mkEngine(t, Defaults(), relation.FromKeys("L", "a"), relation.FromKeys("R", "b"))
	if _, _, err := e.Next(); err == nil {
		t.Error("Next before Open succeeded")
	}
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	if err := e.Open(); err == nil {
		t.Error("double Open succeeded")
	}
	if _, ok, err := e.Next(); ok || err != nil {
		t.Errorf("no-match join: ok=%v err=%v", ok, err)
	}
	// Exhausted engines keep reporting exhaustion.
	if _, ok, _ := e.Next(); ok {
		t.Error("Next after exhaustion returned a match")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err == nil {
		t.Error("double Close succeeded")
	}
}

func TestEngineQuiescent(t *testing.T) {
	left := relation.FromKeys("L", "dup", "dup")
	right := relation.FromKeys("R", "dup")
	e := mkEngine(t, Defaults(), left, right)
	e.Open()
	if !e.Quiescent() {
		t.Error("fresh engine not quiescent")
	}
	// right "dup" probes left store containing one "dup": 1 match; the
	// second left dup then probes right: 1 more. Both delivered one at a
	// time; after each delivery with nothing pending the engine is
	// quiescent again.
	m1, ok, _ := e.Next()
	if !ok {
		t.Fatal("expected first match")
	}
	_ = m1
	if !e.Quiescent() {
		t.Error("engine not quiescent after delivering sole pending match")
	}
	e.Close()
}

type failingSource struct{ n int }

func (f *failingSource) Next() (relation.Tuple, bool, error) {
	if f.n == 0 {
		return relation.Tuple{}, false, errors.New("source exploded")
	}
	f.n--
	return relation.Tuple{Key: "k"}, true, nil
}

func TestEngineSourceErrorPropagates(t *testing.T) {
	e, err := New(Defaults(), &failingSource{n: 1}, stream.FromRelation(relation.FromKeys("R", "k")), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Open()
	for i := 0; i < 10; i++ {
		if _, ok, err := e.Next(); err != nil {
			if got := err.Error(); got == "" {
				t.Error("empty error")
			}
			return
		} else if !ok {
			t.Fatal("engine reported exhaustion instead of error")
		}
	}
	t.Fatal("error never surfaced")
}

// containsAll reports whether sup contains every pair of sub (by refs).
func containsAll(sup, sub []Pair) bool {
	set := make(map[[2]int]bool, len(sup))
	for _, p := range sup {
		set[[2]int{p.LeftRef, p.RightRef}] = true
	}
	for _, p := range sub {
		if !set[[2]int{p.LeftRef, p.RightRef}] {
			return false
		}
	}
	return true
}

func hasDuplicates(ps []Pair) bool {
	set := make(map[[2]int]bool, len(ps))
	for _, p := range ps {
		k := [2]int{p.LeftRef, p.RightRef}
		if set[k] {
			return true
		}
		set[k] = true
	}
	return false
}

// genCorpus builds a random parent/child-style pair of relations with
// exact duplicates and 1-edit variants, using only multi-char keys so
// approximate probes can always re-find exact pairs.
func genCorpus(rng *rand.Rand) (*relation.Relation, *relation.Relation) {
	base := []string{
		"ALFA ROMEO GIULIETTA", "BRAVO CHARLIE DELTA", "MONTE ROSA VETTA",
		"VAL GARDENA ORTISEI", "PORTO CERVO MARINA", "CASTEL DEL MONTE",
	}
	left := relation.New("L", relation.NewSchema("key"))
	right := relation.New("R", relation.NewSchema("key"))
	nl, nr := 3+rng.Intn(8), 3+rng.Intn(8)
	pick := func() string { return base[rng.Intn(len(base))] }
	mutate := func(s string) string {
		rs := []rune(s)
		rs[rng.Intn(len(rs))] = 'x'
		return string(rs)
	}
	for i := 0; i < nl; i++ {
		s := pick()
		if rng.Intn(4) == 0 {
			s = mutate(s)
		}
		left.Append(s)
	}
	for i := 0; i < nr; i++ {
		s := pick()
		if rng.Intn(4) == 0 {
			s = mutate(s)
		}
		right.Append(s)
	}
	return left, right
}

// Property: under arbitrary switch schedules, the hybrid result is
// duplicate-free, contains every exact pair, and is a subset of the
// all-approximate oracle.
func TestHybridSwitchSafetyProperty(t *testing.T) {
	cfg := Defaults()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		left, right := genCorpus(rng)
		e, err := New(cfg, stream.FromRelation(left), stream.FromRelation(right), nil)
		if err != nil {
			return false
		}
		// Random switch schedule: at every step, maybe jump to a random state.
		e.OnStep = func(en *Engine) {
			if rng.Intn(3) == 0 {
				if _, err := en.SetState(AllStates[rng.Intn(len(AllStates))]); err != nil {
					t.Errorf("SetState: %v", err)
				}
			}
		}
		matches, err := iterator.Drain[Match](e, nil)
		if err != nil {
			return false
		}
		got := PairsOf(matches)
		if hasDuplicates(got) {
			return false
		}
		exact := NestedLoopExact(left, right)
		if !containsAll(got, exact) {
			return false
		}
		approx, err := NestedLoopApprox(cfg, left, right)
		if err != nil {
			return false
		}
		return containsAll(approx, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: a pure lap/rap engine computes exactly the approximate
// oracle's pairs, and a pure lex/rex engine exactly the exact oracle's,
// under random interleaving orders.
func TestPureOperatorsMatchOraclesProperty(t *testing.T) {
	cfg := Defaults()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		left, right := genCorpus(rng)
		il := stream.NewRandomInterleave(seed, 0.5)
		esh, err := pinned(cfg, LexRex, left, right, il)
		if err != nil {
			return false
		}
		shMatches, err := iterator.Drain[Match](esh, nil)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(PairsOf(shMatches), NestedLoopExact(left, right)) {
			return false
		}
		essh, err := pinned(cfg, LapRap, left, right, stream.NewRandomInterleave(seed+1, 0.5))
		if err != nil {
			return false
		}
		sshMatches, err := iterator.Drain[Match](essh, nil)
		if err != nil {
			return false
		}
		oracle, err := NestedLoopApprox(cfg, left, right)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(PairsOf(sshMatches), oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: step accounting is exact — steps equal tuples read, and
// per-state step counts sum to the total.
func TestStepAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		left, right := genCorpus(rng)
		e, err := New(Defaults(), stream.FromRelation(left), stream.FromRelation(right), nil)
		if err != nil {
			return false
		}
		e.OnStep = func(en *Engine) {
			if rng.Intn(4) == 0 {
				en.SetState(AllStates[rng.Intn(4)])
			}
		}
		if _, err := iterator.Drain[Match](e, nil); err != nil {
			return false
		}
		st := e.Stats()
		if st.Steps != left.Len()+right.Len() {
			return false
		}
		sum := 0
		for _, s := range st.StepsInState {
			sum += s
		}
		trans := 0
		for _, tr := range st.TransitionsInto {
			trans += tr
		}
		return sum == st.Steps && trans == st.Switches
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
