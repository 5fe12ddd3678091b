package qgram

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestGramsPaddedCount(t *testing.T) {
	// Padded decomposition of a length-L string yields L+q-1 windows (the
	// paper's |jA|+q-1 accounting), all distinct for these inputs.
	e := New(3)
	cases := []struct {
		s    string
		want int
	}{
		{"", 0},
		{"a", 3},     // ##a, #a$, a$$
		{"ab", 4},    // ##a #ab ab$ b$$
		{"abcde", 7}, // 5+3-1
	}
	for _, c := range cases {
		got := e.Grams(c.s)
		if len(got) != c.want {
			t.Errorf("Grams(%q) = %v (%d grams), want %d", c.s, got, len(got), c.want)
		}
		if n := e.Count(c.s); n != c.want {
			t.Errorf("Count(%q) = %d, want %d", c.s, n, c.want)
		}
	}
}

func TestGramsContent(t *testing.T) {
	e := New(2)
	got := e.Grams("ab")
	want := []string{"#a", "ab", "b$"}
	if len(got) != len(want) {
		t.Fatalf("Grams = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("gram %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestGramsDedup(t *testing.T) {
	// q = 1 pads nothing: the grams are the distinct runes.
	if got := New(1).Grams("aaa"); len(got) != 1 || got[0] != "a" {
		t.Errorf("Grams(aaa) = %v, want [a]", got)
	}
	// Repeated windows collapse, first occurrence kept in order.
	got := New(2).Grams("abab")
	want := []string{"#a", "ab", "ba", "b$"}
	if len(got) != len(want) {
		t.Fatalf("Grams(abab) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("gram %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// Decomposition is verbatim: keys differing in case share no grams.
// Folding is the normalization profile's job, upstream of the extractor.
func TestCaseFolding(t *testing.T) {
	e := New(3)
	if n := Intersection(e.Grams("rome"), e.Grams("ROME")); n != 0 {
		t.Errorf("rome/ROME share %d grams, want 0 (the extractor must not fold)", n)
	}
}

func TestGramsUnicode(t *testing.T) {
	got := New(2).Grams("héllo")
	// 5 runes -> 6 padded bigrams; multi-byte é must not be split.
	if len(got) != 6 || got[0] != "#h" || got[1] != "hé" || got[2] != "él" {
		t.Errorf("Grams(héllo) = %v", got)
	}
}

func TestNewPanicsOnBadQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestIntersection(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"x"}, nil, 0},
		{[]string{"a", "b"}, []string{"b", "c"}, 1},
		{[]string{"a", "b", "c"}, []string{"a", "b", "c"}, 3},
		{[]string{"a", "a"}, []string{"a", "a", "a"}, 1}, // distinct grams counted once
	}
	for _, c := range cases {
		if got := Intersection(c.a, c.b); got != c.want {
			t.Errorf("Intersection(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Intersection(c.b, c.a); got != c.want {
			t.Errorf("Intersection(%v,%v) = %d, want %d (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestSorted(t *testing.T) {
	in := []string{"c", "a", "b"}
	got := Sorted(in)
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("Sorted = %v", got)
	}
	if in[0] != "c" {
		t.Error("Sorted mutated its input")
	}
}

// Property: decomposition is deterministic, and the gram count is the
// number of distinct windows — at most the |jA|+q-1 of the padded form.
func TestGramsProperties(t *testing.T) {
	e := New(3)
	f := func(s string) bool {
		g1, g2 := e.Grams(s), e.Grams(s)
		if len(g1) != len(g2) {
			return false
		}
		runes := len([]rune(s))
		if runes == 0 {
			return len(g1) == 0
		}
		return len(g1) == len(dedupForTest(g1)) && len(g1) >= 1 && len(g1) <= runes+3-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every gram of a padded decomposition has rune-length q.
func TestGramWidthProperty(t *testing.T) {
	e := New(3)
	f := func(s string) bool {
		for _, g := range e.Grams(s) {
			if len([]rune(g)) != 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a single-character edit touches at most q windows of the
// padded decomposition (the classic q-gram edit bound), so
// Intersection >= len - q on substitution edits.
func TestEditBoundProperty(t *testing.T) {
	e := New(3)
	f := func(s string, pos uint8) bool {
		if len(s) == 0 {
			return true
		}
		rs := []rune(s)
		i := int(pos) % len(rs)
		mutated := append([]rune(nil), rs...)
		mutated[i] = 'ж' // guaranteed different from itself? ensure differs
		if mutated[i] == rs[i] {
			mutated[i] = 'q'
		}
		a, b := e.Grams(string(rs)), e.Grams(string(mutated))
		// At most q windows touched.
		return Intersection(a, b) >= len(a)-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func dedupForTest(grams []string) []string {
	seen := map[string]struct{}{}
	var out []string
	for _, g := range grams {
		if _, ok := seen[g]; !ok {
			seen[g] = struct{}{}
			out = append(out, g)
		}
	}
	return out
}

func TestLongString(t *testing.T) {
	e := New(3)
	// 1002 windows, of which the period-10 body repeats: 10 distinct
	// interior grams plus the two leading and two trailing padded ones.
	s := strings.Repeat("abcdefghij", 100)
	if n := e.Count(s); n != 10+4 {
		t.Errorf("Count(long) = %d, want 14", n)
	}
}
