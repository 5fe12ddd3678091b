package qgram

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// Path selection: non-ASCII BMP keys with q ≤ maxPackedRunes rune-pack;
// astral-plane runes and oversized q fall back to materialised strings;
// pure ASCII keeps the byte packing.
func TestDecomposePathSelection(t *testing.T) {
	var sc Scratch
	cases := []struct {
		q          int
		s          string
		runePacked bool
		strs       bool
	}{
		{3, "münchen", true, false},
		{3, "ЛЕНИНГРАД", true, false},
		{3, "東京都 港区", true, false},
		{3, "ascii only", false, false},
		{3, "emoji 🦊 den", false, true}, // astral rune: string fallback
		{4, "münchen", false, true},     // q > maxPackedRunes: string fallback
		{7, "ascii only", false, false}, // byte packing still fits q=7
	}
	for _, c := range cases {
		sc.Reset()
		k := New(c.q).Decompose(&sc, c.s)
		if k.runePacked != c.runePacked || (k.strs != nil) != c.strs {
			t.Errorf("Decompose(q=%d, %q): runePacked=%v strs=%v, want %v/%v",
				c.q, c.s, k.runePacked, k.strs != nil, c.runePacked, c.strs)
		}
	}
}

// The rune packing's ordering invariant: numeric order of packed values
// is lexicographic (UTF-8 bytewise) order of the gram strings, so a
// set-mode Key's grams come out sorted exactly like the string path's.
func TestRunePackedCanonicalOrder(t *testing.T) {
	alpha := []rune("абвГДЕ ёαβ語東ü#")
	ex := New(3)
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make([]rune, 1+int(n)%20)
		for i := range rs {
			rs[i] = alpha[rng.Intn(len(alpha))]
		}
		var sc Scratch
		k := ex.Decompose(&sc, string(rs))
		if !k.runePacked {
			return true // all-ASCII draw; not this test's subject
		}
		if !slices.IsSorted(k.packed) {
			return false
		}
		grams := decomposedGrams(k)
		return slices.IsSorted(grams)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// packRunes/unpackRunes round-trip every BMP rune at every gram length.
func TestRunePackRoundTrip(t *testing.T) {
	samples := []rune{1, ' ', '#', 'z', 0x7F, 0x80, 'ü', 'Ж', 'ξ', '東', 0xFFFD, maxBMP}
	for _, r0 := range samples {
		for _, r1 := range samples {
			for n := 1; n <= maxPackedRunes; n++ {
				rs := []rune{r0, r1, 'х'}[:n]
				p := packRunes(rs)
				if got := string(unpackRunes(nil, p)); got != string(rs) {
					t.Fatalf("round trip %q -> %#x -> %q", string(rs), p, got)
				}
			}
		}
	}
}

// Dict round-trip on the rune-packed path: interned ids resolve through
// both the packed lookup and the string lookup, matching the ASCII
// contract.
func TestDictRunePackedRoundTrip(t *testing.T) {
	ex := New(3)
	d := NewDict()
	var sc Scratch
	k := ex.Decompose(&sc, "ЕКАТЕРИНБУРГ ЖЕЛЕЗНОДОРОЖНЫЙ")
	if !k.runePacked {
		t.Fatal("expected rune-packed key")
	}
	ids := d.Intern(nil, k)
	if len(ids) != k.Len() || d.Len() != k.Len() {
		t.Fatalf("interned %d ids, dict %d, grams %d", len(ids), d.Len(), k.Len())
	}
	if got := d.AppendIDs(nil, k); !reflect.DeepEqual(got, ids) {
		t.Errorf("AppendIDs = %v, want %v", got, ids)
	}
	for i, g := range decomposedGrams(k) {
		if id, ok := d.IDOf(g); !ok || id != ids[i] {
			t.Errorf("IDOf(%q) = %d,%v, want %d", g, id, ok, ids[i])
		}
	}
}

// Kernel allocation pins for the rune path: a warm decomposition and a
// read-only dictionary lookup of a non-ASCII BMP key allocate nothing.
func TestRunePackedDecomposeAndLookupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	ex := New(3)
	d := NewDict()
	var sc Scratch
	key := "МОСКВА ПЕТРОГРАДСКАЯ СТОРОНА"
	d.Intern(nil, ex.Decompose(&sc, key))
	sc.Reset()
	// Warm the scratch to steady-state capacity.
	_ = ex.Decompose(&sc, key)
	sc.Reset()
	if avg := testing.AllocsPerRun(100, func() {
		_ = ex.Decompose(&sc, key)
		sc.Reset()
	}); avg != 0 {
		t.Errorf("warm rune-packed Decompose allocated %.1f times per run", avg)
	}
	k := ex.Decompose(&sc, key)
	buf := make([]uint32, 0, 64)
	if avg := testing.AllocsPerRun(100, func() {
		buf = d.AppendIDs(buf[:0], k)
	}); avg != 0 {
		t.Errorf("rune-packed AppendIDs allocated %.1f times per run", avg)
	}
}

// The scratch arena keeps earlier rune-packed Keys valid while ASCII
// and fallback keys are decomposed after them — the mixed-script shape
// a multilingual batch produces.
func TestScratchArenaMixedScripts(t *testing.T) {
	ex := New(3)
	var sc Scratch
	keys := []string{"münchen ost", "plain ascii", "東京都 港区", "emoji 🦊 tail", "ΑΘΗΝΑ ΚΕΝΤΡΟ"}
	ks := make([]Key, len(keys))
	for i, s := range keys {
		ks[i] = ex.Decompose(&sc, s)
	}
	for i, s := range keys {
		got := decomposedGrams(ks[i])
		want := Sorted(ex.Grams(s))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("arena key %d (%q) corrupted: %v != %v", i, s, got, want)
		}
	}
}

// The three decomposition paths agree with the Grams oracle on strings
// that sit exactly on the scheme boundaries.
func TestDecomposeBoundaryParity(t *testing.T) {
	boundary := []string{
		string(rune(maxBMP)),                         // last packable rune
		string(rune(maxBMP)) + string(rune(0x10000)), // BMP + first astral
		"�", "\xff\xfe", // replacement rune; invalid UTF-8
		"\x00abc", "ab­cd", // NUL; soft hyphen
		strings.Repeat("ё", 1), strings.Repeat("ё", 2), strings.Repeat("ё", 3),
	}
	for name, ex := range extractorVariants() {
		for _, s := range boundary {
			var sc Scratch
			got := decomposedGrams(ex.Decompose(&sc, s))
			want := Sorted(ex.Grams(s))
			if len(got) == 0 {
				got = nil
			}
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Decompose(%q) = %v, want %v", name, s, got, want)
			}
		}
	}
}
