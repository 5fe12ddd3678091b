package normalize

import (
	"strings"
	"testing"
)

// FuzzNormalize asserts that the standard pipeline never panics, is
// idempotent, and emits only letters, digits and single spaces — and
// that the steps returning an already-normal input as is agree with
// their copying forms.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{"", "Forlì-Cesena", "  a  b ", "Sant'Agata", "日本", "\x00\t\n",
		"VIA ROMA 1", "A\u00a0B", "A\xffB", "A\uFFFDB", "CAFE\u0301"} {
		f.Add(seed)
	}
	n := Standard()
	f.Fuzz(func(t *testing.T, s string) {
		for name, pair := range map[string][2]string{
			"FoldAccents":    {FoldAccents(s), foldAccents(s)},
			"StripPunct":     {StripPunct(s), stripPunct(s)},
			"CollapseSpaces": {CollapseSpaces(s), strings.Join(strings.Fields(s), " ")},
		} {
			if pair[0] != pair[1] {
				t.Fatalf("%s(%q) = %q, its copying form %q", name, s, pair[0], pair[1])
			}
		}
		out := n.Apply(s)
		if n.Apply(out) != out {
			t.Fatalf("not idempotent: %q -> %q -> %q", s, out, n.Apply(out))
		}
		prevSpace := true // leading space illegal
		for _, r := range out {
			if r == ' ' {
				if prevSpace {
					t.Fatalf("run of spaces in %q", out)
				}
				prevSpace = true
				continue
			}
			prevSpace = false
		}
		if len(out) > 0 && out[len(out)-1] == ' ' {
			t.Fatalf("trailing space in %q", out)
		}
	})
}
