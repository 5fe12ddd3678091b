package normalize

import (
	"strings"
	"testing"
)

// FuzzNormalize asserts that the standard pipeline never panics, is
// idempotent, and emits only letters, digits and single spaces; that
// the steps returning an already-normal input as is agree with their
// copying forms; and that every registered profile's ASCII kernel
// returns what its steps return, on the input and on its ASCII
// projection.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{"", "Forlì-Cesena", "  a  b ", "Sant'Agata", "日本", "\x00\t\n",
		"VIA ROMA 1", "A\u00a0B", "A\xffB", "A\uFFFDB", "CAFE\u0301", "A \x1fB\v", "x- y -"} {
		f.Add(seed)
	}
	n := Standard()
	var profiles []*Normalizer
	for _, name := range Profiles() {
		p, err := ProfileNamed(name)
		if err != nil {
			f.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// The kernels are one linear pass with no state beyond the last
		// byte, so a short input shows every disagreement a long one can,
		// at a fraction of the twelve pipeline runs' cost.
		short := s[:min(len(s), 256)]
		ascii := []byte(short)
		for i := range ascii {
			ascii[i] &= 0x7f
		}
		for _, p := range profiles {
			for _, in := range []string{short, string(ascii)} {
				if got, want := p.Apply(in), p.applySteps(in); got != want {
					t.Fatalf("profile with kernel %d: Apply(%q) = %q, its steps give %q", p.kernel, in, got, want)
				}
			}
		}
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
