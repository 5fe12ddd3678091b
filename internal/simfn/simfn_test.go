package simfn

import (
	"math"
	"testing"
	"testing/quick"

	"adaptivelink/internal/qgram"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCoefficientDegenerate(t *testing.T) {
	for _, m := range []TokenMeasure{Jaccard, Dice, Cosine, Overlap} {
		if got := m.Coefficient(0, 0, 0); got != 1 {
			t.Errorf("%v.Coefficient(0,0,0) = %v, want 1", m, got)
		}
		if got := m.Coefficient(0, 5, 0); got != 0 {
			t.Errorf("%v.Coefficient(0,5,0) = %v, want 0", m, got)
		}
		if got := m.Coefficient(5, 0, 0); got != 0 {
			t.Errorf("%v.Coefficient(5,0,0) = %v, want 0", m, got)
		}
	}
}

func TestCoefficientKnownValues(t *testing.T) {
	// A and B with |A|=4, |B|=6, |A∩B|=3.
	if got := Jaccard.Coefficient(4, 6, 3); !almost(got, 3.0/7.0) {
		t.Errorf("Jaccard = %v, want 3/7", got)
	}
	if got := Dice.Coefficient(4, 6, 3); !almost(got, 0.6) {
		t.Errorf("Dice = %v, want 0.6", got)
	}
	if got := Cosine.Coefficient(4, 6, 3); !almost(got, 3/math.Sqrt(24)) {
		t.Errorf("Cosine = %v", got)
	}
	if got := Overlap.Coefficient(4, 6, 3); !almost(got, 0.75) {
		t.Errorf("Overlap = %v, want 0.75", got)
	}
}

func TestMeasureString(t *testing.T) {
	names := map[TokenMeasure]string{Jaccard: "jaccard", Dice: "dice", Cosine: "cosine", Overlap: "overlap"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("String() = %q, want %q", m.String(), want)
		}
		if got, ok := ParseMeasure(want); !ok || got != m {
			t.Errorf("ParseMeasure(%q) = %v, %v; want %v", want, got, ok, m)
		}
	}
	if TokenMeasure(99).String() != "TokenMeasure(99)" {
		t.Errorf("unknown measure String() = %q", TokenMeasure(99).String())
	}
	for _, name := range []string{"", "Jaccard", "jacard", "TokenMeasure(99)"} {
		if m, ok := ParseMeasure(name); ok {
			t.Errorf("ParseMeasure(%q) = %v, want no measure", name, m)
		}
	}
}

func TestMinOverlapJaccard(t *testing.T) {
	// c >= theta*g; g=20, theta=0.85 -> c >= 17.
	if got := Jaccard.MinOverlap(20, 0.85); got != 17 {
		t.Errorf("MinOverlap(20, .85) = %d, want 17", got)
	}
	if got := Jaccard.MinOverlap(10, 0.0); got != 1 {
		t.Errorf("MinOverlap(10, 0) = %d, want 1", got)
	}
	if got := Jaccard.MinOverlap(0, 0.85); got != 0 {
		t.Errorf("MinOverlap(0, .85) = %d, want 0", got)
	}
	// Bound never exceeds probe size.
	if got := Jaccard.MinOverlap(3, 0.999); got > 3 {
		t.Errorf("MinOverlap(3, .999) = %d > g", got)
	}
}

// Property: the MinOverlap bound is sound — any pair whose similarity
// meets theta has intersection >= MinOverlap(probe grams, theta).
func TestMinOverlapSoundProperty(t *testing.T) {
	e := qgram.New(3)
	f := func(a, b string, th uint8) bool {
		theta := float64(th%100) / 100
		ga, gb := e.Grams(a), e.Grams(b)
		inter := qgram.Intersection(ga, gb)
		for _, m := range []TokenMeasure{Jaccard, Dice, Cosine} {
			sim := m.Coefficient(len(ga), len(gb), inter)
			if sim >= theta && theta > 0 && len(ga) > 0 {
				if inter < m.MinOverlap(len(ga), theta) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJaccardQGramIdentity(t *testing.T) {
	sim := JaccardQGram(3)
	if got := sim("SANTA CRISTINA", "SANTA CRISTINA"); got != 1 {
		t.Errorf("identical strings sim = %v, want 1", got)
	}
	if got := sim("abc", "xyz"); got != 0 {
		t.Errorf("disjoint strings sim = %v, want 0", got)
	}
}

func TestJaccardQGramOneEditHigh(t *testing.T) {
	// The paper's datasets use 1-character edits on long location strings.
	// Under padded q=3 set Jaccard a single substitution on an L-char
	// string without repeated grams scores (L-1)/(L+5), e.g. 0.8378 for
	// the 32-char example below. The paper tuned its threshold (0.85 for
	// its gram/similarity definition); our calibrated default threshold
	// (see datagen) must be cleared by such variants.
	sim := JaccardQGram(3)
	a := "TAA BZ SANTA CRISTINA VALGARDENA"
	b := "TAA BZ SANTA CRISTINx VALGARDENA"
	got := sim(a, b)
	if math.Abs(got-31.0/37.0) > 1e-12 {
		t.Errorf("sim(%q,%q) = %v, want 31/37", a, b, got)
	}
	if got < 0.75 {
		t.Errorf("one-edit variant sim %v fell below the calibrated threshold 0.75", got)
	}
}

// Property: token similarities are symmetric and within [0,1].
func TestTokenSimProperties(t *testing.T) {
	e := qgram.New(3)
	fns := map[string]Func{
		"jaccard": TokenSim(Jaccard, e),
		"dice":    TokenSim(Dice, e),
		"cosine":  TokenSim(Cosine, e),
		"overlap": TokenSim(Overlap, e),
	}
	for name, fn := range fns {
		f := func(a, b string) bool {
			s1, s2 := fn(a, b), fn(b, a)
			return almost(s1, s2) && s1 >= 0 && s1 <= 1+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"a", "b", 1},
		{"héllo", "hello", 1}, // rune-wise
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Levenshtein is a metric on the tested triples — symmetry,
// identity, and triangle inequality.
func TestLevenshteinMetricProperties(t *testing.T) {
	sym := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(sym, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	ident := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(ident, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("identity: %v", err)
	}
	tri := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(tri, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("triangle: %v", err)
	}
}
