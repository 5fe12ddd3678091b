package datagen

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"adaptivelink/internal/join"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/simfn"
)

func TestNameGenUniqueAndShaped(t *testing.T) {
	g := NewNameGen(42)
	seen := map[string]struct{}{}
	for i := 0; i < 2000; i++ {
		k := g.Next()
		if _, dup := seen[k]; dup {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = struct{}{}
		parts := strings.Fields(k)
		if len(parts) < 4 {
			t.Fatalf("key %q has %d fields, want >= 4", k, len(parts))
		}
		if len(parts[0]) != 3 || len(parts[1]) != 2 {
			t.Fatalf("key %q lacks REGION/PROVINCE prefix", k)
		}
	}
}

func TestNameGenDeterministic(t *testing.T) {
	a, b := NewNameGen(7), NewNameGen(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestMutateEditDistanceOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewNameGen(2)
	for i := 0; i < 500; i++ {
		key := g.Next()
		v := Mutate(rng, key)
		if v == key {
			t.Fatalf("Mutate returned the original %q", key)
		}
		if d := simfn.Levenshtein(key, v); d != 1 {
			t.Fatalf("Mutate(%q) = %q at distance %d, want 1", key, v, d)
		}
	}
}

func TestMutatePreservesSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	key := "AB CD EF"
	for i := 0; i < 100; i++ {
		if strings.Count(Mutate(rng, key), " ") != 2 {
			t.Fatal("Mutate touched a separator space")
		}
	}
}

func TestMutateDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if got := Mutate(rng, "   "); got == "   " {
		// all-space keys get an appended character
	} else if got != "   x" {
		t.Errorf("Mutate(spaces) = %q", got)
	}
	if got := Mutate(rng, "xxxx"); strings.Contains(got, "z") == false {
		t.Errorf("Mutate of all-x key %q must substitute a z", got)
	}
}

// Calibration property 1: every variant stays above the calibrated
// similarity threshold against its original.
func TestVariantSimilarityAboveThreshold(t *testing.T) {
	sim := simfn.JaccardQGram(3)
	rng := rand.New(rand.NewSource(5))
	g := NewNameGen(6)
	min := 1.0
	for i := 0; i < 1000; i++ {
		key := g.Next()
		s := sim(key, Mutate(rng, key))
		if s < min {
			min = s
		}
	}
	if min < join.DefaultTheta {
		t.Errorf("variant similarity %v fell below θsim=%v", min, join.DefaultTheta)
	}
}

// Calibration property 2: distinct keys rarely reach the threshold, so
// the approximate join's false-positive rate is negligible (the paper
// tuned θsim for exactly this on its own generator).
func TestCrossSimilarityBelowThreshold(t *testing.T) {
	sim := simfn.JaccardQGram(3)
	g := NewNameGen(8)
	keys := make([]string, 250)
	for i := range keys {
		keys[i] = g.Next()
	}
	pairs, fp := 0, 0
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			pairs++
			if sim(keys[i], keys[j]) >= join.DefaultTheta {
				fp++
			}
		}
	}
	if rate := float64(fp) / float64(pairs); rate > 0.001 {
		t.Errorf("false-positive rate %v (%d/%d pairs) above 0.1%%", rate, fp, pairs)
	}
}

func TestRegionsExpectedVariantBudget(t *testing.T) {
	const n, rate = 8082, 0.10
	for _, p := range AllPatterns {
		regions, err := Regions(p, n, rate)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		got := ExpectedVariants(regions, n) / float64(n)
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("%v: expected variant proportion %v, want ~%v", p, got, rate)
		}
		for _, r := range regions {
			if r.Start < 0 || r.End > n || r.Start >= r.End {
				t.Errorf("%v: malformed region %+v", p, r)
			}
			if r.Intensity <= 0 || r.Intensity > 1 {
				t.Errorf("%v: intensity %v out of range", p, r.Intensity)
			}
		}
	}
}

func TestRegionsShapeDiffersByPattern(t *testing.T) {
	const n, rate = 8000, 0.10
	uni, _ := Regions(Uniform, n, rate)
	low, _ := Regions(InterleavedLow, n, rate)
	few, _ := Regions(FewHighIntensity, n, rate)
	many, _ := Regions(ManyHighIntensity, n, rate)
	if len(uni) != 1 || uni[0].Len() != n {
		t.Errorf("uniform should be one full-width region: %+v", uni)
	}
	if len(few) != 3 || len(many) != 12 {
		t.Errorf("region counts: few=%d many=%d", len(few), len(many))
	}
	if len(low) != 8 {
		t.Errorf("interleaved-low regions = %d", len(low))
	}
	if few[0].Intensity < 0.8 || many[0].Intensity < 0.8 {
		t.Error("high-intensity patterns not high-intensity")
	}
	// With the total budget fixed, more regions means shorter ones.
	if many[0].Len() >= few[0].Len() {
		t.Errorf("many-high region len %d >= few-high %d", many[0].Len(), few[0].Len())
	}
}

func TestRegionsValidation(t *testing.T) {
	if _, err := Regions(Uniform, 0, 0.1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Regions(Uniform, 10, -0.1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := Regions(Pattern(99), 10, 0.1); err == nil {
		t.Error("unknown pattern accepted")
	}
	if rs, err := Regions(Uniform, 10, 0); err != nil || rs != nil {
		t.Errorf("rate=0: %v %v", rs, err)
	}
}

func TestPatternString(t *testing.T) {
	want := map[Pattern]string{
		Uniform: "uniform", InterleavedLow: "interleaved-low",
		FewHighIntensity: "few-high", ManyHighIntensity: "many-high",
	}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
	if Pattern(9).String() != "Pattern(9)" {
		t.Error("unknown pattern string")
	}
}

// The Parse functions invert String over the listed values and refuse
// every other name, the out-of-range fallbacks included.
func TestParseInvertsString(t *testing.T) {
	for _, p := range AllPatterns {
		if got, ok := ParsePattern(p.String()); !ok || got != p {
			t.Errorf("ParsePattern(%q) = %v, %v", p.String(), got, ok)
		}
	}
	for _, s := range AllScripts {
		if got, ok := ParseScript(s.String()); !ok || got != s {
			t.Errorf("ParseScript(%q) = %v, %v", s.String(), got, ok)
		}
	}
	for _, name := range []string{"", "Uniform", "Pattern(9)", "few_high"} {
		if _, ok := ParsePattern(name); ok {
			t.Errorf("ParsePattern accepted %q", name)
		}
	}
	for _, name := range []string{"", "ASCII", "Script(7)", "latin"} {
		if _, ok := ParseScript(name); ok {
			t.Errorf("ParseScript accepted %q", name)
		}
	}
	if Script(7).String() != "Script(7)" {
		t.Error("unknown script string")
	}
}

func TestRender(t *testing.T) {
	regions := []Region{{Start: 0, End: 50, Intensity: 0.9}, {Start: 80, End: 100, Intensity: 0.1}}
	m := Render(regions, 100, 20)
	if len(m) != 20 {
		t.Fatalf("Render width %d, want 20", len(m))
	}
	if m[0] != '#' {
		t.Errorf("high-intensity cell rendered %q", m[0])
	}
	if m[12] != '.' {
		t.Errorf("empty cell rendered %q", m[12])
	}
	if m[17] != '-' {
		t.Errorf("low-intensity cell rendered %q, map %q", m[17], m)
	}
	if Render(nil, 0, 10) != "" || Render(nil, 10, 0) != "" {
		t.Error("degenerate Render not empty")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Defaults(FewHighIntensity, true)
	spec.ParentSize, spec.ChildSize = 500, 500
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(spec)
	for i := 0; i < a.Child.Len(); i++ {
		if a.Child.At(i).Key != b.Child.At(i).Key {
			t.Fatal("same spec generated different children")
		}
	}
	for j := 0; j < a.Parent.Len(); j++ {
		if a.Parent.At(j).Key != b.Parent.At(j).Key {
			t.Fatal("same spec generated different parents")
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	spec := Defaults(Uniform, false)
	spec.ParentSize, spec.ChildSize = 800, 1200
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if d.Parent.Len() != 800 || d.Child.Len() != 1200 {
		t.Fatalf("sizes %d/%d", d.Parent.Len(), d.Child.Len())
	}
	if len(d.ChildParent) != 1200 {
		t.Fatal("ChildParent length wrong")
	}
	for i, p := range d.ChildParent {
		if p < 0 || p >= 800 {
			t.Fatalf("child %d references parent %d", i, p)
		}
	}
	if d.ParentRegions != nil {
		t.Error("parent perturbed without PerturbParent")
	}
	// Payload shape: accidents carry id and date, locations lat/lon.
	if got := d.Child.Schema.AttrNames; len(got) != 2 || got[0] != "accident_id" {
		t.Errorf("child schema %v", got)
	}
	if got := d.Parent.Schema.AttrNames; len(got) != 2 || got[0] != "lat" {
		t.Errorf("parent schema %v", got)
	}
}

func TestGenerateVariantRate(t *testing.T) {
	for _, p := range AllPatterns {
		spec := Defaults(p, true)
		spec.ParentSize, spec.ChildSize = 4000, 4000
		spec.Seed = int64(p) + 10
		d, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cv, pv := d.VariantCount()
		crate := float64(cv) / 4000
		prate := float64(pv) / 4000
		if math.Abs(crate-0.10) > 0.03 {
			t.Errorf("%v: child variant rate %v, want ~0.10", p, crate)
		}
		if math.Abs(prate-0.10) > 0.03 {
			t.Errorf("%v: parent variant rate %v, want ~0.10", p, prate)
		}
	}
}

func TestGenerateVariantsMatchFlags(t *testing.T) {
	spec := Defaults(ManyHighIntensity, true)
	spec.ParentSize, spec.ChildSize = 600, 600
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		p := d.ChildParent[i]
		exact := d.Child.At(i).Key == d.Parent.At(p).Key
		wantExact := !d.ChildVariant[i] && !d.ParentVariant[p]
		if exact != wantExact {
			t.Fatalf("child %d: exact=%v but flags child=%v parent=%v",
				i, exact, d.ChildVariant[i], d.ParentVariant[p])
		}
	}
	if got, want := d.TrueMatches(), countExact(d); got != want {
		t.Errorf("TrueMatches() = %d, recount %d", got, want)
	}
}

func countExact(d *Dataset) int {
	n := 0
	for i, p := range d.ChildParent {
		if d.Child.At(i).Key == d.Parent.At(p).Key {
			n++
		}
	}
	return n
}

func TestGenerateVariantsInsideRegions(t *testing.T) {
	spec := Defaults(FewHighIntensity, false)
	spec.ParentSize, spec.ChildSize = 2000, 2000
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, isVar := range d.ChildVariant {
		if !isVar {
			continue
		}
		inside := false
		for _, r := range d.ChildRegions {
			if r.Contains(i) {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("variant at %d outside every region", i)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{ParentSize: 0, ChildSize: 1, VariantRate: 0.1},
		{ParentSize: 1, ChildSize: -1, VariantRate: 0.1},
		{ParentSize: 1, ChildSize: 1, VariantRate: 1.5},
		{ParentSize: 1, ChildSize: 1, VariantRate: 0.1, Pattern: Pattern(44)},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	if err := Defaults(Uniform, false).Validate(); err != nil {
		t.Errorf("Defaults invalid: %v", err)
	}
}

func TestSpecName(t *testing.T) {
	if got := Defaults(Uniform, false).Name(); got != "uniform/child-only" {
		t.Errorf("Name() = %q", got)
	}
	if got := Defaults(ManyHighIntensity, true).Name(); got != "many-high/both" {
		t.Errorf("Name() = %q", got)
	}
}

// Property: generation never panics and keeps rates sane across random
// small specs.
func TestGenerateProperty(t *testing.T) {
	f := func(seed int64, pRaw, sizeRaw uint8, both bool) bool {
		spec := Spec{
			Seed:          seed,
			ParentSize:    50 + int(sizeRaw)%300,
			ChildSize:     50 + int(sizeRaw)%300,
			VariantRate:   float64(pRaw%30) / 100,
			Pattern:       AllPatterns[int(pRaw)%len(AllPatterns)],
			PerturbParent: both,
		}
		d, err := Generate(spec)
		if err != nil {
			return false
		}
		cv, pv := d.VariantCount()
		if !both && pv != 0 {
			return false
		}
		return cv <= d.Child.Len() && d.TrueMatches() <= d.Child.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestScriptGenerators(t *testing.T) {
	ex := qgram.New(3)
	jaccard := simfn.TokenSim(simfn.Jaccard, ex)
	for _, script := range AllScripts {
		script := script
		t.Run(script.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			g := NewNameGenScript(5, script)
			seen := map[string]struct{}{}
			for i := 0; i < 500; i++ {
				k := g.Next()
				if _, dup := seen[k]; dup {
					t.Fatalf("duplicate key %q", k)
				}
				seen[k] = struct{}{}
				if script != ASCII && isASCIIString(k) {
					t.Fatalf("script %v generated pure-ASCII key %q", script, k)
				}
				if n := len(ex.Grams(k)); n < 26 {
					t.Fatalf("key %q has %d distinct grams, want >= 26", k, n)
				}
				v := Mutate(rng, k)
				if v == k {
					t.Fatalf("Mutate returned the original %q", k)
				}
				if d := simfn.Levenshtein(k, v); d != 1 {
					t.Fatalf("Mutate(%q) = %q at rune distance %d, want 1", k, v, d)
				}
				// The variant must stay above the calibrated threshold
				// under padded q=3 Jaccard, like the ASCII generator.
				if sim := jaccard(k, v); sim < join.DefaultTheta {
					t.Fatalf("variant %q of %q has similarity %v < theta %v", v, k, sim, join.DefaultTheta)
				}
			}
		})
	}
}

func TestGenerateScriptedDataset(t *testing.T) {
	for _, script := range []Script{Cyrillic, Greek, CJK, LatinDiacritic} {
		spec := Defaults(FewHighIntensity, false)
		spec.ParentSize, spec.ChildSize = 300, 300
		spec.Script = script
		ds, err := Generate(spec)
		if err != nil {
			t.Fatalf("Generate(%v): %v", script, err)
		}
		child, _ := ds.VariantCount()
		if child == 0 {
			t.Fatalf("script %v dataset has no child variants", script)
		}
		if got := ds.Spec.Name(); !strings.Contains(got, script.String()) {
			t.Fatalf("Spec.Name() = %q, want script suffix %q", got, script.String())
		}
	}
}

func TestValidateRejectsUnknownScript(t *testing.T) {
	spec := Defaults(Uniform, false)
	spec.Script = Script(99)
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted unknown script")
	}
}

func isASCIIString(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
