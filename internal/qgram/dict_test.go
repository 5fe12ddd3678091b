package qgram

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// decomposedGrams materialises a Key's grams as strings, for comparison
// against the legacy Grams path.
func decomposedGrams(k Key) []string {
	out := make([]string, 0, k.Len())
	for i := 0; i < k.Len(); i++ {
		out = append(out, string(k.AppendGram(nil, i)))
	}
	return out
}

// extractorVariants covers every decomposition path across gram widths:
// byte-packed ASCII for q ≤ 7, rune-packed BMP for q ≤ 3, the string
// fallback beyond (q = 8 for ASCII, q = 4 for non-ASCII).
func extractorVariants() map[string]*Extractor {
	return map[string]*Extractor{
		"q3":      New(3),
		"q1":      New(1),
		"q2":      New(2),
		"q4":      New(4),
		"q7":      New(7),
		"q8-slow": New(8),
	}
}

// Property: Decompose yields exactly the gram set of Grams, in canonical
// order, for ASCII and non-ASCII inputs alike.
func TestDecomposeMatchesGrams(t *testing.T) {
	inputs := []string{
		"", "a", "ab", "ROMA", "rome", "TAA BZ SANTA CRISTINA VALGARDENA",
		"abcabcabc", "aaaa", "x", "##$$", "a#b$c",
		"münchen", "łódź 12", "東京都", "café au lait", "ÅNGSTRÖM",
		strings.Repeat("ab", 40), "Mixed Case Street 7",
	}
	for name, ex := range extractorVariants() {
		for _, s := range inputs {
			var sc Scratch
			got := decomposedGrams(ex.Decompose(&sc, s))
			want := Sorted(ex.Grams(s))
			if len(want) == 0 {
				want = nil
			}
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Decompose(%q) = %v, want %v", name, s, got, want)
			}
		}
	}
}

func TestDecomposeRandomisedProperty(t *testing.T) {
	alpha := []rune("ab YZ#$éñ目9")
	ex, ex2 := New(3), New(2)
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make([]rune, int(n)%24)
		for i := range rs {
			rs[i] = alpha[rng.Intn(len(alpha))]
		}
		s := string(rs)
		var sc Scratch
		for _, e := range []*Extractor{ex, ex2} {
			got := decomposedGrams(e.Decompose(&sc, s))
			if len(got) == 0 {
				got = nil
			}
			want := Sorted(e.Grams(s))
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				return false
			}
			sc.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The scratch is an arena: earlier Keys stay valid while later ones are
// decomposed, until Reset.
func TestScratchArenaKeysStayValid(t *testing.T) {
	ex := New(3)
	var sc Scratch
	keys := []string{"monte rosa", "monte bianco", "gran paradiso", "cervino"}
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

func TestCountMatchesGrams(t *testing.T) {
	inputs := []string{
		"", "a", "ab", "abc", "abcd", "aaaa", "aa", "#", "$", "a#", "ab$",
		"münchen", "ü", "目目目目", "SHORT", "x y", "repeatrepeat",
	}
	for name, ex := range extractorVariants() {
		for _, s := range inputs {
			if got, want := ex.Count(s), len(ex.Grams(s)); got != want {
				t.Errorf("%s: Count(%q) = %d, want %d", name, s, got, want)
			}
		}
	}
}

// Satellite: Count on short pad-free strings is arithmetic (l+q-1 — no
// padding collisions are possible).
func TestCountShortStringArithmetic(t *testing.T) {
	ex := New(5)
	// len < q, no pad runes: all padded windows are provably distinct.
	for _, s := range []string{"ab", "XY Z", "a", "abcd"} {
		l := len([]rune(s))
		if got := ex.Count(s); got != l+5-1 {
			t.Errorf("Count(%q) = %d, want %d", s, got, l+4)
		}
	}
	// A pad rune in the data disables the shortcut but not correctness.
	if got, want := ex.Count("a#b"), len(ex.Grams("a#b")); got != want {
		t.Errorf("Count(a#b) = %d, want %d", got, want)
	}
}

func TestDictInternLookupRoundTrip(t *testing.T) {
	ex := New(3)
	d := NewDict()
	var sc Scratch
	k := ex.Decompose(&sc, "monte rosa")
	ids := d.Intern(nil, k)
	if len(ids) != k.Len() {
		t.Fatalf("Intern returned %d ids for %d grams", len(ids), k.Len())
	}
	if d.Len() != k.Len() {
		t.Fatalf("Dict.Len() = %d, want %d (all grams distinct)", d.Len(), k.Len())
	}
	// Read-only lookup agrees with interning, id for id.
	if got := d.AppendIDs(nil, k); !reflect.DeepEqual(got, ids) {
		t.Errorf("AppendIDs = %v, want %v", got, ids)
	}
	// The string-keyed lookup agrees with the packed path.
	for i, g := range decomposedGrams(k) {
		id, ok := d.IDOf(g)
		if !ok || id != ids[i] {
			t.Errorf("IDOf(%q) = %d,%v, want %d", g, id, ok, ids[i])
		}
	}
	// Ids are dense: every id below Len.
	for _, id := range ids {
		if int(id) >= d.Len() {
			t.Errorf("id %d out of dense range %d", id, d.Len())
		}
	}
}

// Unknown grams short-circuit to NoID on the read-only path and never
// grow the dictionary or allocate; known grams, read through a cloned
// dictionary from its shared base and its own overlay, allocate
// nothing either.
func TestDictUnknownGramNoIDNoAlloc(t *testing.T) {
	ex := New(3)
	d := NewDict()
	var sc Scratch
	d.Intern(nil, ex.Decompose(&sc, "monte rosa"))
	n := d.Len()

	sc.Reset()
	unknown := ex.Decompose(&sc, "zzzyyyxxx")
	ids := d.AppendIDs(nil, unknown)
	for _, id := range ids {
		if id != NoID {
			t.Errorf("unknown gram mapped to id %d, want NoID", id)
		}
	}
	if d.Len() != n {
		t.Fatalf("read-only lookup grew the dict: %d -> %d", n, d.Len())
	}
	if !raceEnabled {
		buf := make([]uint32, 0, 64)
		if avg := testing.AllocsPerRun(100, func() {
			buf = d.AppendIDs(buf[:0], unknown)
		}); avg != 0 {
			t.Errorf("AppendIDs on unknown grams allocated %.1f times", avg)
		}
	}

	sc.Reset()
	c := d.Clone()
	known := []Key{ex.Decompose(&sc, "monte rosa"), ex.Decompose(&sc, "lago di como"), ex.Decompose(&sc, "𝔸𝔹ℂ")}
	c.Intern(nil, known[1])
	c.Intern(nil, known[2])
	for _, k := range known {
		if ids := c.AppendIDs(nil, k); slices.Contains(ids, NoID) {
			t.Fatalf("cloned dict lost a known gram: %v", ids)
		}
		if !raceEnabled {
			buf := make([]uint32, 0, 64)
			if avg := testing.AllocsPerRun(100, func() {
				buf = c.AppendIDs(buf[:0], k)
			}); avg != 0 {
				t.Errorf("AppendIDs on known grams through a clone allocated %.1f times", avg)
			}
		}
	}
}

// Clone is copy-on-write: interning into the clone never renumbers or
// leaks into the original — the RCU snapshot contract.
func TestDictCloneIsolation(t *testing.T) {
	ex := New(3)
	d := NewDict()
	var sc Scratch
	base := ex.Decompose(&sc, "monte rosa")
	baseIDs := d.Intern(nil, base)

	c := d.Clone()
	fresh := ex.Decompose(&sc, "lago di como")
	freshIDs := c.Intern(nil, fresh)

	// Existing ids preserved in the clone.
	if got := c.AppendIDs(nil, base); !reflect.DeepEqual(got, baseIDs) {
		t.Errorf("clone renumbered: %v != %v", got, baseIDs)
	}
	// New ids are dense extensions.
	for _, id := range freshIDs {
		if int(id) >= c.Len() {
			t.Errorf("clone id %d out of range %d", id, c.Len())
		}
	}
	// The original is untouched: fresh grams unknown, length unchanged.
	if d.Len() >= c.Len() {
		t.Fatalf("original grew with the clone: %d vs %d", d.Len(), c.Len())
	}
	for i, id := range d.AppendIDs(nil, fresh) {
		known := slices.Contains(baseIDs, id)
		if id != NoID && !known {
			t.Errorf("original knows clone-interned gram %d (id %d)", i, id)
		}
	}
}

// A long lineage of clones — each interning a few more keys, so the
// shared gram table is folded many times over — keeps every id ever
// assigned, keeps Grams() the inverse of IDOf, and leaves each frozen
// generation exactly as long as it was.
func TestDictLineageKeepsIDs(t *testing.T) {
	ex := New(3)
	var sc Scratch
	d := NewDict()
	assigned := make(map[string]uint32)
	type frozen struct {
		d   *Dict
		len int
	}
	var history []frozen
	for gen := 0; gen < 150; gen++ {
		sc.Reset()
		k := ex.Decompose(&sc, fmt.Sprintf("strada %d numero %d", gen*gen, gen))
		ids := d.Intern(nil, k)
		for i, g := range decomposedGrams(k) {
			if prev, ok := assigned[g]; ok && prev != ids[i] {
				t.Fatalf("generation %d renumbered gram %q: %d -> %d", gen, g, prev, ids[i])
			}
			assigned[g] = ids[i]
		}
		if d.Len() != len(assigned) {
			t.Fatalf("generation %d: Len %d, %d grams assigned", gen, d.Len(), len(assigned))
		}
		history = append(history, frozen{d, d.Len()})
		d = d.Clone()
	}
	grams := d.Grams()
	for g, id := range assigned {
		if got, ok := d.IDOf(g); !ok || got != id || grams[id] != g {
			t.Fatalf("gram %q: IDOf = %d, %v; Grams()[%d] = %q; assigned %d", g, got, ok, id, grams[id], id)
		}
	}
	for gen, h := range history {
		if h.d.Len() != h.len {
			t.Fatalf("generation %d grew from %d to %d grams after it was cloned", gen, h.len, h.d.Len())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("interning a new gram into a cloned dictionary did not panic")
		}
	}()
	var fresh Scratch
	history[0].d.Intern(nil, New(3).Decompose(&fresh, "never seen"))
}

func TestIntersectSortedIDsMatchesIntersection(t *testing.T) {
	ex := New(3)
	f := func(a, b string) bool {
		d := NewDict()
		var sc Scratch
		sa := d.Intern(nil, ex.Decompose(&sc, a))
		sb := d.Intern(nil, ex.Decompose(&sc, b))
		slices.Sort(sa)
		slices.Sort(sb)
		return IntersectSortedIDs(sa, sb) == Intersection(ex.Grams(a), ex.Grams(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzGramDict round-trips arbitrary inputs through decomposition,
// interning, read-only lookup and cloning, asserting the dictionary
// invariants: dense stable ids, packed/string path agreement, and
// clone isolation.
func FuzzGramDict(f *testing.F) {
	f.Add("monte rosa", "monte bianco")
	f.Add("", "x")
	f.Add("münchen", "MÜNCHEN 12")
	f.Add("a#b$", strings.Repeat("ab", 50))
	f.Add("東京", "京都")
	f.Fuzz(func(t *testing.T, a, b string) {
		ex := New(3)
		d := NewDict()
		var sc Scratch
		ka := ex.Decompose(&sc, a)
		idsA := d.Intern(nil, ka)
		if len(idsA) != ka.Len() || d.Len() != ka.Len() {
			t.Fatalf("intern %q: %d ids, dict %d, grams %d", a, len(idsA), d.Len(), ka.Len())
		}
		// Round-trip: the string form of every gram resolves to the id
		// the packed form was interned under.
		for i, g := range decomposedGrams(ka) {
			if id, ok := d.IDOf(g); !ok || id != idsA[i] {
				t.Fatalf("IDOf(%q) = %v,%v want %d", g, id, ok, idsA[i])
			}
		}
		kb := ex.Decompose(&sc, b)
		lookB := d.AppendIDs(nil, kb)
		c := d.Clone()
		idsB := c.Intern(nil, kb)
		for i := range idsB {
			if lookB[i] == NoID {
				// Unknown to the original: the clone must have assigned a
				// fresh dense id, and the original must still not know it.
				if int(idsB[i]) < d.Len() {
					t.Fatalf("fresh gram %d of %q got non-fresh id %d", i, b, idsB[i])
				}
			} else if idsB[i] != lookB[i] {
				t.Fatalf("clone renumbered gram %d of %q: %d -> %d", i, b, lookB[i], idsB[i])
			}
		}
		if again := d.AppendIDs(nil, ka); !reflect.DeepEqual(again, idsA) {
			t.Fatalf("original ids changed after clone intern: %v != %v", again, idsA)
		}
		if c.Len() < d.Len() {
			t.Fatalf("clone shrank: %d < %d", c.Len(), d.Len())
		}
	})
}
