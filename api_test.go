package adaptivelink

import (
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"adaptivelink/internal/adaptive"
)

func TestFromKeysJoinExact(t *testing.T) {
	left := FromKeys("monte rosa vetta", "valle aosta centro")
	right := FromKeys("monte rosa vetta", "porto cervo marina")
	j, err := New(left, right, Options{Strategy: ExactOnly})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := j.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	m := ms[0]
	if m.Left.Key != "monte rosa vetta" || m.Right.Key != m.Left.Key {
		t.Errorf("match = %+v", m)
	}
	if !m.Exact || m.Similarity != 1 {
		t.Errorf("exactness wrong: %+v", m)
	}
}

func TestApproximateFindsVariant(t *testing.T) {
	left := FromKeys("TAA BZ SANTA CRISTINA VALGARDENA")
	right := FromKeys("TAA BZ SANTA CRISTINx VALGARDENA")
	j, err := New(left, right, Options{Strategy: ApproximateOnly})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := j.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Exact || ms[0].Similarity < 0.75 {
		t.Fatalf("variant not found: %+v", ms)
	}
}

func TestAdaptiveEndToEnd(t *testing.T) {
	td, err := GenerateTestData(9, 500, 500, PatternFewHigh, 0.10, false)
	if err != nil {
		t.Fatal(err)
	}
	j, err := New(td.ParentSource(), td.ChildSource(), Options{
		W: 30, DeltaAdapt: 20, TraceActivations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := j.All()
	if err != nil {
		t.Fatal(err)
	}

	// Baselines over identical data.
	je, _ := New(td.ParentSource(), td.ChildSource(), Options{Strategy: ExactOnly})
	exact, _ := je.All()
	ja, _ := New(td.ParentSource(), td.ChildSource(), Options{Strategy: ApproximateOnly})
	approx, _ := ja.All()

	if !(len(exact) <= len(ms) && len(ms) <= len(approx)) {
		t.Errorf("completeness ordering: exact=%d adaptive=%d approx=%d",
			len(exact), len(ms), len(approx))
	}
	st := j.Stats()
	if st.Switches == 0 {
		t.Error("adaptive join never switched on 10%% variants")
	}
	if st.Matches != len(ms) {
		t.Errorf("Stats.Matches=%d, delivered %d", st.Matches, len(ms))
	}
	if st.Steps != 1000 || st.LeftRead != 500 || st.RightRead != 500 {
		t.Errorf("scan accounting: %+v", st)
	}
	sum := 0
	for _, v := range st.StepsInState {
		sum += v
	}
	// Sequential or parallel (Options{} defaults to one shard per CPU),
	// a tuple is one engine step: on a parallel join, in its home shard.
	if sum != st.Steps {
		t.Errorf("per-state steps sum %d != %d", sum, st.Steps)
	}
	if st.ModelledCost <= float64(st.Steps) {
		t.Errorf("modelled cost %v should exceed the all-exact cost %d", st.ModelledCost, st.Steps)
	}
	acts := j.Activations()
	if len(acts) == 0 {
		t.Fatal("no activations traced")
	}
	sawSwitch := false
	for _, a := range acts {
		if a.From != a.To {
			sawSwitch = true
			// Sequential traces carry the catch-up per activation; on a
			// parallel join it lands in the per-shard aggregate instead.
			if a.From == "lex/rex" && a.CaughtUp == 0 && st.Parallelism == 1 {
				t.Error("switch out of lex/rex caught up nothing")
			}
		}
	}
	if !sawSwitch {
		t.Error("trace recorded no switch")
	}
	if st.Parallelism > 1 && st.Switches > 0 && st.CatchUpTuples == 0 {
		t.Error("parallel switches recorded no catch-up tuples")
	}
}

func TestAdaptiveNeedsParentSize(t *testing.T) {
	ch := make(chan Tuple)
	close(ch)
	// Channel source with unknown size and no explicit ParentSize.
	src, err := FromChannel(ch, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(src, FromKeys("a"), Options{}); err == nil {
		t.Fatal("adaptive join constructed without parent cardinality")
	}
	// Explicit ParentSize fixes it.
	ch2 := make(chan Tuple)
	close(ch2)
	src2, err := FromChannel(ch2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(src2, FromKeys("a"), Options{ParentSize: 10}); err != nil {
		t.Fatalf("explicit ParentSize rejected: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, FromKeys("a"), Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := New(FromKeys("a"), FromKeys("b"), Options{Strategy: Strategy(9)}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := New(FromKeys("a"), FromKeys("b"), Options{Theta: 2}); err == nil {
		t.Error("bad theta accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Q != 3 || o.Theta != 0.75 || o.W != 100 || o.DeltaAdapt != 100 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.ThetaOut != 0.05 || o.ThetaCurPert != 0.02 || o.ThetaPastPert != 3 {
		t.Errorf("MAR defaults wrong: %+v", o)
	}
	// Explicit values survive.
	o = Options{Q: 2, Theta: 0.9, W: 7}.withDefaults()
	if o.Q != 2 || o.Theta != 0.9 || o.W != 7 {
		t.Errorf("explicit values overridden: %+v", o)
	}
}

func TestEnumStrings(t *testing.T) {
	if Left.String() != "left" || Right.String() != "right" {
		t.Error("Side strings")
	}
	if Jaccard.String() != "jaccard" || Overlap.String() != "overlap" {
		t.Error("Measure strings")
	}
	if Adaptive.String() != "adaptive" || ExactOnly.String() != "exact" ||
		ApproximateOnly.String() != "approximate" || Strategy(7).String() != "Strategy(7)" {
		t.Error("Strategy strings")
	}
}

func TestFromTuplesPreservesPayload(t *testing.T) {
	src := FromTuples([]Tuple{{Key: "k1", Attrs: []string{"a", "b"}}})
	tup, ok, err := src.Next()
	if err != nil || !ok {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if tup.Key != "k1" || len(tup.Attrs) != 2 || tup.Attrs[1] != "b" {
		t.Errorf("tuple = %+v", tup)
	}
	if _, ok, _ := src.Next(); ok {
		t.Error("source should be exhausted")
	}
}

// FromTuples copies the caller's attributes: mutating them after the
// load, in place or by reslicing, leaves the indexed payload as it was.
func TestFromTuplesOwnsAttrs(t *testing.T) {
	ts := []Tuple{
		{ID: 9, Key: "via monte bianco nord", Attrs: []string{"alpine", "12"}},
		{ID: 4, Key: "lago di como est", Attrs: []string{"lake"}},
		{Key: "valle verde ovest"},
	}
	ix, err := BulkLoad(FromTuples(ts), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ts[0].Attrs[0], ts[0].Attrs[1] = "mutated", "mutated"
	ts[1].Attrs[0] = "mutated"
	ts[1].Attrs = append(ts[1].Attrs[:0], "appended", "appended")
	ts[2].Attrs = []string{"added"}
	for i, want := range []Tuple{
		{ID: 0, Key: "via monte bianco nord", Attrs: []string{"alpine", "12"}},
		{ID: 1, Key: "lago di como est", Attrs: []string{"lake"}},
		{ID: 2, Key: "valle verde ovest"},
	} {
		ms := ix.Probe(want.Key)
		if len(ms) != 1 || !reflect.DeepEqual(ms[0].Ref, want) {
			t.Errorf("tuple %d: probe %q = %+v, want the loaded %+v", i, want.Key, ms, want)
		}
	}
}

func TestFromChannelStreamsAndJoins(t *testing.T) {
	ch := make(chan Tuple, 3)
	ch <- Tuple{Key: "monte bianco nord"}
	ch <- Tuple{Key: "lago di como est"}
	close(ch)
	src, err := FromChannel(ch, 2)
	if err != nil {
		t.Fatal(err)
	}
	j, err := New(FromKeys("monte bianco nord", "lago di como est"), src,
		Options{Strategy: ExactOnly})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := j.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Errorf("got %d matches, want 2", len(ms))
	}
}

func TestFromCSVSource(t *testing.T) {
	in := "date,location\n2008-01-01,monte rosa vetta\n2008-01-02,porto cervo marina\n"
	src, err := FromCSV(csv.NewReader(strings.NewReader(in)), "location", 2)
	if err != nil {
		t.Fatal(err)
	}
	j, err := New(FromKeys("monte rosa vetta"), src, Options{Strategy: ExactOnly})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := j.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Right.Attrs[0] != "2008-01-01" {
		t.Errorf("matches = %+v", ms)
	}
}

func TestFromCSVMissingColumn(t *testing.T) {
	if _, err := FromCSV(csv.NewReader(strings.NewReader("a,b\n")), "missing", -1); err == nil {
		t.Error("missing key column accepted")
	}
}

func TestLoadRelationCSV(t *testing.T) {
	in := "location,lat\nmonte rosa vetta,45.9\n"
	tuples, factory, err := LoadRelationCSV(strings.NewReader(in), "atlas", "location")
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0].Key != "monte rosa vetta" {
		t.Errorf("tuples = %+v", tuples)
	}
	// The factory yields fresh sources over the same data.
	for i := 0; i < 2; i++ {
		src := factory()
		tup, ok, _ := src.Next()
		if !ok || tup.Key != "monte rosa vetta" {
			t.Errorf("factory run %d: %+v ok=%v", i, tup, ok)
		}
	}
}

func TestGenerateTestDataPublic(t *testing.T) {
	td, err := GenerateTestData(1, 200, 300, PatternUniform, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Parent) != 200 || len(td.Child) != 300 {
		t.Fatalf("sizes %d/%d", len(td.Parent), len(td.Child))
	}
	if len(td.ChildParent) != 300 || len(td.ChildVariant) != 300 || len(td.ParentVariant) != 200 {
		t.Error("ground-truth lengths wrong")
	}
	if _, err := GenerateTestData(1, 100, 100, Pattern("bogus"), 0.1, false); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := GenerateTestData(1, 0, 100, PatternUniform, 0.1, false); err == nil {
		t.Error("zero parent accepted")
	}
}

func TestIteratorStyleUsage(t *testing.T) {
	j, err := New(FromKeys("shared key value"), FromKeys("shared key value"), Options{ParentSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	if j.State() != "lex/rex" {
		t.Errorf("initial state %q", j.State())
	}
	n := 0
	for {
		_, ok, err := j.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Errorf("streamed %d matches", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestActivationsNilForBaselines(t *testing.T) {
	j, _ := New(FromKeys("a"), FromKeys("a"), Options{Strategy: ExactOnly, TraceActivations: true})
	if j.Activations() != nil {
		t.Error("baseline join has activations")
	}
}

// TestCalibratedEstimatorOption drives Options.CalibratedEstimator
// through New: an adaptive join over a parent of unknown size needs it,
// and with it the join runs sequentially and sharded, its loop learning
// the match rate before the deficit test may fire.
func TestCalibratedEstimatorOption(t *testing.T) {
	td := goldenData(t, 7, 600)
	unsized := func() Source {
		ch := make(chan Tuple, len(td.Parent))
		for _, p := range td.Parent {
			ch <- p
		}
		close(ch)
		src, err := FromChannel(ch, -1)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	if _, err := New(unsized(), td.ChildSource(), Options{Strategy: Adaptive}); err == nil || !strings.Contains(err.Error(), "CalibratedEstimator") {
		t.Fatalf("unsized parent without CalibratedEstimator: err = %v, want one naming the option", err)
	}
	calibration := adaptive.DefaultParams().CalibrationActivations
	for _, par := range []int{1, 2} {
		j, err := New(unsized(), td.ChildSource(), Options{
			Strategy: Adaptive, Parallelism: par, CalibratedEstimator: true, TraceActivations: true,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		ms, err := j.All()
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(ms) == 0 {
			t.Fatalf("parallelism %d: no matches", par)
		}
		acts := j.Activations()
		if len(acts) <= calibration {
			t.Fatalf("parallelism %d: %d activations, want more than the %d that calibrate", par, len(acts), calibration)
		}
		for i, a := range acts[:calibration] {
			if a.Sigma || a.Tail != 1 {
				t.Errorf("parallelism %d: calibrating activation %d reports tail %v, sigma %v", par, i, a.Tail, a.Sigma)
			}
		}
	}
}
