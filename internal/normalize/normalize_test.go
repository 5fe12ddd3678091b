package normalize

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
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
	a := NewNormalizer(Uppercase, SortTokens).Apply("b a")
	if a != "A B" {
		t.Errorf("got %q", a)
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

func TestSortTokens(t *testing.T) {
	if got := SortTokens("GENOVA LIG GE"); got != "GE GENOVA LIG" {
		t.Errorf("got %q", got)
	}
	if got := SortTokens(""); got != "" {
		t.Errorf("got %q", got)
	}
}

func TestSoundexKnownValues(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Robert", "R163"},
		{"Rupert", "R163"},
		{"Ashcraft", "A261"}, // H is transparent
		{"Ashcroft", "A261"},
		{"Tymczak", "T522"},
		{"Pfister", "P236"},
		{"Honeyman", "H555"},
		{"", ""},
		{"123", ""},
		{"  Éclair", "E246"},
	}
	for _, c := range cases {
		if got := Soundex(c.in); got != c.want {
			t.Errorf("Soundex(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSoundexFirstWordOnly(t *testing.T) {
	if Soundex("Robert Smith") != Soundex("Robert Jones") {
		t.Error("Soundex should key on the first word")
	}
}

// Regression: intra-name apostrophes and hyphens must not terminate
// coding — O'BRIEN previously coded as O000.
func TestSoundexIntraNamePunctuation(t *testing.T) {
	cases := []struct{ in, want string }{
		{"O'Brien", "O165"},
		{"o'brien", "O165"},
		{"OBrien", "O165"},
		{"O’Brien", "O165"}, // typographic apostrophe
		{"Jean-Baptiste", "J511"},
		{"JeanBaptiste", "J511"},
		{"D'Angelo", "D524"},
	}
	for _, c := range cases {
		if got := Soundex(c.in); got != c.want {
			t.Errorf("Soundex(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// The punctuated and plain spellings must block together.
	if Soundex("O'Brien") != Soundex("OBrien") {
		t.Error("apostrophe changed the blocking key")
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
	if got := Soundex(nfd); got != Soundex(nfc) {
		t.Errorf("Soundex differs across normal forms: %q vs %q", Soundex(nfd), Soundex(nfc))
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

// Property: Soundex output is always "" or a letter plus three digits.
func TestSoundexShapeProperty(t *testing.T) {
	f := func(s string) bool {
		c := Soundex(s)
		if c == "" {
			return true
		}
		if len(c) != 4 {
			return false
		}
		if c[0] < 'A' || c[0] > 'Z' {
			return false
		}
		return strings.IndexFunc(c[1:], func(r rune) bool { return r < '0' || r > '6' }) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: equal strings keep equal codes under case variation. The
// generator is seeded (quick.Check seeds from the clock by default), and
// the runes random strings almost never contain — every rune either case
// mapping moves — are checked exhaustively, leading, inside and ending a
// name.
func TestSoundexCaseInsensitiveProperty(t *testing.T) {
	f := func(s string) bool {
		return Soundex(strings.ToLower(s)) == Soundex(strings.ToUpper(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if unicode.ToLower(r) == r && unicode.ToUpper(r) == r {
			continue
		}
		for _, s := range []string{string(r) + "rt", "Ro" + string(r) + "t", "Robe" + string(r)} {
			if !f(s) {
				t.Errorf("%U in %q: lower codes %q, upper codes %q", r, s, Soundex(strings.ToLower(s)), Soundex(strings.ToUpper(s)))
			}
		}
	}
}

// The compatibility letters whose lower- and upper-case spellings used
// to code apart (one mapping leaves them alone, the other lands on a
// plain Latin letter): they code like the letter they fold to, however
// the string is cased.
func TestSoundexCompatibilityLetters(t *testing.T) {
	cases := []struct{ in, want string }{
		{"\u212Bngstrom", "A523"}, // U+212B ANGSTROM SIGN, upper case already
		{"\u212Aelvin", "K415"},   // U+212A KELVIN SIGN, upper case already
		{"\u017Fmith", "S530"},    // U+017F LATIN SMALL LETTER LONG S
		{"Ma\u017Fon", "M250"},
		{"\u0130zmir", "I256"}, // U+0130 LATIN CAPITAL LETTER I WITH DOT ABOVE
		{"\u0131zmir", "I256"}, // U+0131 LATIN SMALL LETTER DOTLESS I
	}
	for _, c := range cases {
		for _, in := range []string{c.in, strings.ToLower(c.in), strings.ToUpper(c.in)} {
			if got := Soundex(in); got != c.want {
				t.Errorf("Soundex(%q) = %q, want %q", in, got, c.want)
			}
		}
	}
}

// Non-Latin keys must never code: pre-guard, the coder skipped letters
// it could not code and emitted nonsense for mixed-script keys (the
// stray Latin 'a' in "Дavid" coded as if it led the name).
func TestSoundexNonLatinGuard(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Дмитрий", ""},   // Cyrillic: outside the repertoire
		{"Дavid", ""},     // mixed script: no skipping ahead to the 'a'
		{"Μαρία", ""},     // Greek
		{"東京", ""},        // CJK
		{"42-17", ""},     // digits only, as before
		{"  O'Brien", ""}, // control: Latin after punctuation still codes
	}
	cases[len(cases)-1].want = "O165"
	for _, c := range cases {
		if got := Soundex(c.in); got != c.want {
			t.Errorf("Soundex(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// SoundexProfile across every registered profile: Latin-script profiles
// code Latin keys and refuse non-Latin ones with a diagnosis; the
// non-Latin profiles refuse phonetic keying outright.
func TestSoundexProfileTable(t *testing.T) {
	for _, profile := range Profiles() {
		supported := SoundexSupported(profile)
		switch profile {
		case "", "standard", "latin":
			if !supported {
				t.Errorf("SoundexSupported(%q) = false, want true", profile)
			}
		case "cyrillic", "greek", "cjk":
			if supported {
				t.Errorf("SoundexSupported(%q) = true, want false", profile)
			}
		default:
			t.Errorf("profile %q missing from the Soundex support table", profile)
		}

		code, err := SoundexProfile(profile, "Robert")
		if supported {
			if err != nil || code != "R163" {
				t.Errorf("SoundexProfile(%q, Robert) = %q, %v; want R163", profile, code, err)
			}
		} else if err == nil {
			t.Errorf("SoundexProfile(%q, Robert) = %q, want an unsupported-profile error", profile, code)
		}

		// A Cyrillic key must never code, whatever the profile.
		if code, err := SoundexProfile(profile, "Дмитрий"); err == nil && code != "" {
			t.Errorf("SoundexProfile(%q, Дмитрий) = %q, want error or empty", profile, code)
		}
		if supported {
			if _, err := SoundexProfile(profile, "Дмитрий"); err == nil {
				t.Errorf("SoundexProfile(%q, Дмитрий) succeeded, want a non-Latin-key error", profile)
			}
		}
	}
	if _, err := SoundexProfile("no-such-profile", "Robert"); err == nil {
		t.Error("SoundexProfile with unknown profile succeeded")
	}
	// Keys with no letters at all code to "" without error (nothing to
	// guard): matches Soundex's historical contract.
	if code, err := SoundexProfile("latin", "42-17"); err != nil || code != "" {
		t.Errorf("SoundexProfile(latin, 42-17) = %q, %v; want empty, nil", code, err)
	}
}
