package normalize

import (
	"testing"
	"testing/quick"
)

func TestStandardPipeline(t *testing.T) {
	n := Standard()
	cases := []struct{ in, want string }{
		{"  Forlì -  Cesena  ", "FORLI CESENA"},
		{"Sant'Agata", "SANTAGATA"},
		{"ROMA", "ROMA"},
		{"", ""},
		{"a\tb\nc", "A B C"},
	}
	for _, c := range cases {
		if got := n.Apply(c.in); got != c.want {
			t.Errorf("Apply(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestStepOrderMatters(t *testing.T) {
	if got := NewNormalizer(StripPunct, CollapseSpaces).Apply("a - b"); got != "a b" {
		t.Errorf("strip then collapse: got %q", got)
	}
	if got := NewNormalizer(CollapseSpaces, StripPunct).Apply("a - b"); got != "a  b" {
		t.Errorf("collapse then strip: got %q", got)
	}
	empty := NewNormalizer().Apply("unchanged")
	if empty != "unchanged" {
		t.Errorf("empty pipeline changed input: %q", empty)
	}
}

func TestCollapseSpaces(t *testing.T) {
	if got := CollapseSpaces("  a   b \t c  "); got != "a b c" {
		t.Errorf("got %q", got)
	}
	if got := CollapseSpaces("   "); got != "" {
		t.Errorf("got %q", got)
	}
}

func TestStripPunct(t *testing.T) {
	if got := StripPunct("a-b'c.d,e(f)1 2"); got != "abcdef1 2" {
		t.Errorf("got %q", got)
	}
}

func TestFoldAccents(t *testing.T) {
	if got := FoldAccents("Forlì è città"); got != "Forli e citta" {
		t.Errorf("got %q", got)
	}
	// Unmapped runes survive.
	if got := FoldAccents("日本 ok"); got != "日本 ok" {
		t.Errorf("got %q", got)
	}
}

// Regression: decomposed (NFD) input must fold like precomposed (NFC)
// input — "José" with a combining acute previously kept the mark.
func TestFoldAccentsNFD(t *testing.T) {
	nfc := "José"  // é precomposed
	nfd := "José" // e + combining acute
	if got := FoldAccents(nfd); got != "Jose" {
		t.Errorf("FoldAccents(NFD) = %q, want %q", got, "Jose")
	}
	if FoldAccents(nfc) != FoldAccents(nfd) {
		t.Errorf("NFC and NFD spellings fold differently: %q vs %q",
			FoldAccents(nfc), FoldAccents(nfd))
	}
}

// Regression: the historical accent map missed ø æ œ š ž ł đ ð þ.
func TestFoldAccentsCoverageGaps(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Ødegård", "Odegard"},
		{"Ærø", "AEro"},
		{"Œuvre", "OEuvre"},
		{"Škoda", "Skoda"},
		{"Žižek", "Zizek"},
		{"Łódź", "Lodz"},
		{"Đorđe", "Dorde"},
		{"Ðylan", "Dylan"},
		{"Þóra", "Thora"},
		{"Čenēk", "Cenek"},
	}
	for _, c := range cases {
		if got := FoldAccents(c.in); got != c.want {
			t.Errorf("FoldAccents(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCanonicalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"José", "José"}, // NFD → NFC
		{"José", "José"},  // NFC unchanged
		{"ΐ", "ΐ"},      // ι+diaeresis+tonos → ΐ (two-mark, pairwise)
		{"ё", "ё"},       // е+diaeresis → ё
		{"xঙ", "xঙ"},      // uncovered base+mark pass through
		{"", ""},
	}
	for _, c := range cases {
		if got := Canonicalize(c.in); got != c.want {
			t.Errorf("Canonicalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestStripMarks(t *testing.T) {
	cases := []struct{ in, want string }{
		{"María", "Maria"},  // precomposed
		{"María", "Maria"}, // NFD
		{"άεί", "αει"},      // Greek tonos strips
		{"øæß", "øæß"},      // specials are NOT folded here
		{"ё", "е"},          // ё → е
	}
	for _, c := range cases {
		if got := StripMarks(c.in); got != c.want {
			t.Errorf("StripMarks(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFoldCase(t *testing.T) {
	cases := []struct{ in, want string }{
		{"straße", "STRASSE"},
		{"GroẞMANN", "GROSSMANN"}, // capital ẞ
		{"ﬁn", "FIN"},
		{"θάλασσας", "ΘΆΛΑΣΣΑΣ"}, // final sigma folds with the rest
		{"plain", "PLAIN"},
	}
	for _, c := range cases {
		if got := FoldCase(c.in); got != c.want {
			t.Errorf("FoldCase(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFoldWidth(t *testing.T) {
	if got := FoldWidth("ＡＢＣ　１２３"); got != "ABC 123" {
		t.Errorf("got %q", got)
	}
	if got := FoldWidth("東京"); got != "東京" {
		t.Errorf("CJK ideographs must pass through, got %q", got)
	}
}

func TestProfiles(t *testing.T) {
	names := Profiles()
	for _, want := range []string{"", "standard", "latin", "cyrillic", "greek", "cjk"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("profile %q missing from registry %q", want, names)
		}
	}
	if _, err := ProfileNamed("no-such-profile"); err == nil {
		t.Error("unknown profile must error")
	}
	id, err := ProfileNamed(DefaultProfile)
	if err != nil {
		t.Fatal(err)
	}
	if got := id.Apply("  MiXeD  Cáse  "); got != "  MiXeD  Cáse  " {
		t.Errorf("default profile must be the identity, got %q", got)
	}
}

func TestProfilePipelines(t *testing.T) {
	cases := []struct{ profile, in, want string }{
		{"latin", "José Müller-Straße", "JOSE MULLERSTRASSE"},
		{"latin", "José Müller-Straße", "JOSE MULLERSTRASSE"}, // NFD spelling converges
		{"cyrillic", "Артём Fëdorov", "АРТЕМ FEDOROV"},
		{"greek", "Μαρία Παπαδοπούλου", "ΜΑΡΙΑ ΠΑΠΑΔΟΠΟΥΛΟΥ"},
		{"cjk", "東京都　港区（ＴＯＫＹＯ）", "東京都 港区TOKYO"},
		{"standard", "  Forlì -  Cesena  ", "FORLI CESENA"},
	}
	for _, c := range cases {
		n, err := ProfileNamed(c.profile)
		if err != nil {
			t.Fatal(err)
		}
		if got := n.Apply(c.in); got != c.want {
			t.Errorf("profile %q: Apply(%q) = %q, want %q", c.profile, c.in, got, c.want)
		}
	}
}

// Property: every registered profile is idempotent — applying it twice
// equals applying it once, the contract that lets the facade normalize
// both at index and at probe time without double-folding.
func TestProfileIdempotentProperty(t *testing.T) {
	for _, name := range Profiles() {
		n, err := ProfileNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		f := func(s string) bool {
			once := n.Apply(s)
			return n.Apply(once) == once
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("profile %q: %v", name, err)
		}
	}
}

// Property: normalisation is idempotent for the standard pipeline.
func TestStandardIdempotentProperty(t *testing.T) {
	n := Standard()
	f := func(s string) bool {
		once := n.Apply(s)
		return n.Apply(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Every registered profile returns an already-normal ASCII key itself,
// without allocating.
func TestApplyNormalASCIIZeroAlloc(t *testing.T) {
	for _, name := range Profiles() {
		n, err := ProfileNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		key := "TAA BZ SANTA CRISTINA VALGARDENA 3"
		if got := n.Apply(key); got != key {
			t.Fatalf("profile %q: Apply(%q) = %q, want it unchanged", name, key, got)
		}
		if raceEnabled {
			continue
		}
		if avg := testing.AllocsPerRun(100, func() { _ = n.Apply(key) }); avg != 0 {
			t.Errorf("profile %q: Apply on a normal ASCII key allocated %.2f times per op, want 0", name, avg)
		}
	}
}

// The ASCII kernels against their pipelines on the shapes a one-pass
// rewrite gets wrong: spaces around stripped punctuation, runs at either
// end, ASCII controls that are and are not whitespace, and keys that
// turn non-ASCII after a prefix needing work.
func TestASCIIKernels(t *testing.T) {
	cases := []struct{ in, upper, words string }{
		{"", "", ""},
		{"ROMA", "ROMA", "ROMA"},
		{"roma", "ROMA", "roma"},
		{"  a  b ", "A B", "a b"},
		{"a - b", "A B", "a b"},
		{"a- b -", "A B", "a b"},
		{"Sant'Agata", "SANTAGATA", "SantAgata"},
		{"A\tB\nC\vD\fE\rF", "A B C D E F", "A B C D E F"},
		{"A\x1fB\x00", "AB", "AB"},
		{"a_b~c@d", "ABCD", "abcd"},
		{"- -", "", ""},
		{"VIA ROMA 1 ", "VIA ROMA 1", "VIA ROMA 1"},
	}
	for _, c := range cases {
		for _, k := range []struct {
			kernel asciiKernel
			want   string
		}{{upperWordsKernel, c.upper}, {wordsKernel, c.words}} {
			if got, ok := k.kernel.apply(c.in); !ok || got != k.want {
				t.Errorf("kernel %d on %q = %q, %v; want %q", k.kernel, c.in, got, ok, k.want)
			}
		}
	}
	for _, in := range []string{"Forlì", "a-b é", "x\xff"} {
		if _, ok := upperWordsKernel.apply(in); ok {
			t.Errorf("kernel accepted non-ASCII %q", in)
		}
	}
	for _, name := range Profiles() {
		n, _ := ProfileNamed(name)
		for _, c := range cases {
			if got, want := n.Apply(c.in), n.applySteps(c.in); got != want {
				t.Errorf("profile %q: Apply(%q) = %q, steps give %q", name, c.in, got, want)
			}
		}
	}
}

// BenchmarkNormalizeASCII times the standard profile on ASCII keys, half
// already normal (the kernel's no-copy pass) and half needing a copy.
func BenchmarkNormalizeASCII(b *testing.B) {
	benchmarkApply(b, []string{"TAA BZ SANTA CRISTINA VALGARDENA", "Taa-Bz  Santa Cristina, Valgardena"})
}

// BenchmarkNormalizeLatin is the step pipeline's counterpart: Latin keys
// with diacritics, which the kernel hands to the steps.
func BenchmarkNormalizeLatin(b *testing.B) {
	benchmarkApply(b, []string{"TAA BZ SANTA CRISTINA VALGARDÈNA", "Forlì-Cesena  Città"})
}

func benchmarkApply(b *testing.B, keys []string) {
	n := Standard()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = n.Apply(keys[i%len(keys)])
	}
}
