package qgram

import (
	"reflect"
	"testing"
)

// FuzzDecomposeParity differentially tests the packed decomposition
// paths against the string-materialising Grams oracle: for every input
// — ASCII, Latin-with-diacritics, Cyrillic, Greek, CJK, astral-plane,
// invalid UTF-8 — Decompose must produce exactly the canonical gram set
// Grams does, at every gram width. This
// is the harness that locks the byte-packed, rune-packed and string
// fallback paths to one semantics.
func FuzzDecomposeParity(f *testing.F) {
	seeds := []string{
		"", "TAA BZ SANTA CRISTINA VALGARDENA",
		"MÜNCHEN OST", "Łódź Śródmieście", "José Müller-Straße",
		"МОСКВА ПЕТРОГРАДСКАЯ", "Ярославль",
		"ΑΘΗΝΑ ΚΕΝΤΡΟ", "Θεσσαλονίκη",
		"東京都 港区", "名古屋市中村区",
		"mixed ascii と 漢字", "emoji 🦊 in key", "\xff\xfe broken",
		string(rune(0xFFFF)) + string(rune(0x10000)),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	variants := extractorVariants()
	f.Fuzz(func(t *testing.T, s string) {
		for name, ex := range variants {
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
				t.Fatalf("%s: Decompose(%q) = %v, want %v", name, s, got, want)
			}
			// Count must agree with the decomposition it summarises.
			if n := ex.Count(s); n != len(want) {
				t.Fatalf("%s: Count(%q) = %d, want %d", name, s, n, len(want))
			}
		}
	})
}

// FuzzGrams asserts the structural invariants of padded decomposition
// on arbitrary inputs: no panic, and the grams are exactly the distinct
// q-rune windows of the padded input, each reported once.
func FuzzGrams(f *testing.F) {
	for _, seed := range []string{"", "a", "TAA BZ SANTA CRISTINA", "日本語テキスト", "\x00\xff", "   ", "aaaaaaaa"} {
		f.Add(seed)
	}
	set := New(3)
	f.Fuzz(func(t *testing.T, s string) {
		ss := set.Grams(s)
		rs := []rune(s)
		if len(rs) == 0 {
			if len(ss) != 0 {
				t.Fatalf("empty input produced grams %v", ss)
			}
			return
		}
		// The oracle's oracle: slide the window over the padded runes by
		// hand — runeLen+q-1 windows, each exactly q runes wide.
		padded := append(append([]rune{PadLeft, PadLeft}, rs...), PadRight, PadRight)
		windows := map[string]struct{}{}
		for i := 0; i+3 <= len(padded); i++ {
			windows[string(padded[i:i+3])] = struct{}{}
		}
		if len(ss) != len(windows) {
			t.Fatalf("set size %d, distinct windows %d", len(ss), len(windows))
		}
		for _, g := range ss {
			if _, ok := windows[g]; !ok {
				t.Fatalf("gram %q is not a window of the padded input", g)
			}
			delete(windows, g) // a repeated gram would miss the second time
		}
	})
}
