package hashidx

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"adaptivelink/internal/qgram"
)

func TestExactIndexInsertLookup(t *testing.T) {
	x := NewExactIndex()
	x.Insert(0, "rome")
	x.Insert(1, "milan")
	x.Insert(2, "rome")
	if got := x.Lookup("rome"); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Lookup(rome) = %v", got)
	}
	if got := x.Lookup("milan"); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Lookup(milan) = %v", got)
	}
	if got := x.Lookup("missing"); len(got) != 0 {
		t.Errorf("Lookup(missing) = %v", got)
	}
	if x.Indexed() != 3 || x.Buckets() != 2 {
		t.Errorf("Indexed=%d Buckets=%d", x.Indexed(), x.Buckets())
	}
	if got := x.AvgBucketLen(); got != 1.5 {
		t.Errorf("AvgBucketLen = %v", got)
	}
}

func TestExactIndexDenseOrderEnforced(t *testing.T) {
	x := NewExactIndex()
	x.Insert(0, "a")
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Insert did not panic")
		}
	}()
	x.Insert(2, "b")
}

func TestExactIndexCatchUp(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	x := NewExactIndex()
	if n := x.CatchUp(keys[:2]); n != 2 {
		t.Errorf("first CatchUp inserted %d", n)
	}
	if n := x.CatchUp(keys); n != 2 {
		t.Errorf("second CatchUp inserted %d, want 2 (suffix only)", n)
	}
	if n := x.CatchUp(keys); n != 0 {
		t.Errorf("idempotent CatchUp inserted %d", n)
	}
	if got := x.Lookup("d"); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("Lookup(d) = %v", got)
	}
}

func TestExactIndexEmptyAvgBucket(t *testing.T) {
	if got := NewExactIndex().AvgBucketLen(); got != 0 {
		t.Errorf("empty AvgBucketLen = %v", got)
	}
}

func newQIdx() *QGramIndex { return NewQGramIndex(qgram.New(3)) }

func TestQGramIndexInsertAndFrequency(t *testing.T) {
	x := newQIdx()
	x.Insert(0, "rome")
	x.Insert(1, "romeo")
	// "##r", "#ro", "rom", "ome" are shared by both keys.
	for _, g := range []string{"##r", "#ro", "rom", "ome"} {
		if got := x.Frequency(g); got != 2 {
			t.Errorf("Frequency(%q) = %d, want 2", g, got)
		}
	}
	if x.Indexed() != 2 {
		t.Errorf("Indexed = %d", x.Indexed())
	}
	if x.GramSize(0) != 6 { // |rome|+q-1 = 4+2, all distinct
		t.Errorf("GramSize(0) = %d, want 6", x.GramSize(0))
	}
	if x.Entries() != x.GramSize(0)+x.GramSize(1) {
		t.Errorf("Entries = %d", x.Entries())
	}
	if x.AvgBucketLen() <= 0 {
		t.Error("AvgBucketLen should be positive")
	}
}

func TestQGramIndexDenseOrderEnforced(t *testing.T) {
	x := newQIdx()
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Insert did not panic")
		}
	}()
	x.Insert(1, "a")
}

func TestQGramIndexCatchUp(t *testing.T) {
	x := newQIdx()
	keys := []string{"rome", "milan", "turin"}
	x.CatchUp(keys[:1])
	if n := x.CatchUp(keys); n != 2 {
		t.Errorf("CatchUp inserted %d, want 2", n)
	}
	if x.Indexed() != 3 {
		t.Errorf("Indexed = %d", x.Indexed())
	}
}

func TestProbeFindsExactDuplicate(t *testing.T) {
	x := newQIdx()
	x.Insert(0, "SANTA CRISTINA")
	x.Insert(1, "GENOVA")
	g := x.GramSize(0)
	cands := x.Probe("SANTA CRISTINA", g) // require full overlap
	if len(cands) != 1 || cands[0].Ref != 0 || cands[0].Overlap != g {
		t.Errorf("Probe = %v, want ref 0 with overlap %d", cands, g)
	}
}

func TestProbeFindsOneEditVariant(t *testing.T) {
	x := newQIdx()
	orig := "TAA BZ SANTA CRISTINA VALGARDENA"
	x.Insert(0, orig)
	variant := "TAA BZ SANTA CRISTINx VALGARDENA"
	// A 1-char substitution disturbs at most q=3 grams.
	gv := len(qgram.New(3).Grams(variant))
	cands := x.Probe(variant, gv-3)
	if len(cands) != 1 || cands[0].Ref != 0 {
		t.Errorf("Probe(variant) = %v, want original", cands)
	}
}

func TestProbeRespectsMinOverlap(t *testing.T) {
	x := newQIdx()
	x.Insert(0, "abcdef")
	x.Insert(1, "uvwxyz")
	cands := x.Probe("abcdef", 4)
	if len(cands) != 1 || cands[0].Ref != 0 {
		t.Errorf("Probe = %v", cands)
	}
	// Nothing shares 4 grams with a disjoint string.
	if cands := x.Probe("zzzzzz", 2); len(cands) != 0 {
		t.Errorf("Probe(zzzzzz) = %v, want none", cands)
	}
}

func TestProbeDegenerateInputs(t *testing.T) {
	x := newQIdx()
	x.Insert(0, "abc")
	if got := x.Probe("", 1); got != nil {
		t.Errorf("Probe(empty) = %v", got)
	}
	if got := x.Probe("abc", 0); got != nil {
		t.Errorf("Probe(minOverlap=0) = %v", got)
	}
	// minOverlap larger than the probe's gram count can never be met.
	if got := x.Probe("ab", 100); got != nil {
		t.Errorf("Probe(k>g) = %v", got)
	}
}

func TestProbeOnEmptyIndex(t *testing.T) {
	x := newQIdx()
	if got := x.Probe("anything", 1); len(got) != 0 {
		t.Errorf("Probe on empty index = %v", got)
	}
	if x.AvgBucketLen() != 0 {
		t.Error("empty AvgBucketLen != 0")
	}
}

// Property: the optimised probe returns exactly the same candidate set
// (refs and overlap counts) as the naive probe, for random corpora of
// short synthetic keys and all feasible thresholds.
func TestProbeMatchesNaiveProperty(t *testing.T) {
	syllables := []string{"mon", "te", "ro", "sa", "vi", "la", "ber", "go", "ne", "ca"}
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		x := newQIdx()
		n := 5 + rng.Intn(30)
		keys := make([]string, n)
		for i := range keys {
			s := ""
			for w := 0; w < 2+rng.Intn(4); w++ {
				s += syllables[rng.Intn(len(syllables))]
			}
			keys[i] = s
			x.Insert(i, s)
		}
		probe := keys[rng.Intn(n)]
		g := len(qgram.New(3).Grams(probe))
		k := 1 + int(kRaw)%g
		got := x.Probe(probe, k)
		want := x.ProbeNaive(probe, k)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: every candidate's overlap is the true number of shared
// distinct grams between probe and stored key.
func TestProbeOverlapIsTrueIntersectionProperty(t *testing.T) {
	ex := qgram.New(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := NewQGramIndex(ex)
		keys := make([]string, 12)
		for i := range keys {
			keys[i] = fmt.Sprintf("loc%d-%d", rng.Intn(4), rng.Intn(4))
			x.Insert(i, keys[i])
		}
		probe := keys[rng.Intn(len(keys))]
		for _, c := range x.Probe(probe, 2) {
			want := qgram.Intersection(ex.Grams(probe), ex.Grams(keys[c.Ref]))
			if c.Overlap != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestProbeDeterministicOrder(t *testing.T) {
	x := newQIdx()
	for i, k := range []string{"aaa", "aab", "aac", "aad"} {
		x.Insert(i, k)
	}
	a := x.Probe("aaa", 2)
	b := x.Probe("aaa", 2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("non-deterministic probe: %v vs %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Ref <= a[i-1].Ref {
			t.Errorf("candidates not sorted by ref: %v", a)
		}
	}
}

func TestExactIndexEvictBelow(t *testing.T) {
	x := NewExactIndex()
	for i, k := range []string{"rome", "milan", "rome", "turin", "rome"} {
		x.Insert(i, k)
	}
	if got := x.EvictBelow(3); got != 3 { // rome:0, milan:1, rome:2
		t.Errorf("EvictBelow(3) dropped %d entries, want 3", got)
	}
	if got := x.Lookup("rome"); !reflect.DeepEqual(got, []int{4}) {
		t.Errorf("Lookup(rome) after eviction = %v, want [4]", got)
	}
	if got := x.Lookup("milan"); len(got) != 0 {
		t.Errorf("emptied bucket survived: %v", got)
	}
	if x.Indexed() != 5 {
		t.Errorf("Indexed changed to %d, want 5 (eviction must not rewind the insertion clock)", x.Indexed())
	}
	// Dense insertion continues after eviction.
	x.Insert(5, "milan")
	if got := x.Lookup("milan"); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("post-eviction Insert broken: %v", got)
	}
	// Idempotent: nothing below the floor remains.
	if got := x.EvictBelow(3); got != 0 {
		t.Errorf("second EvictBelow(3) dropped %d", got)
	}
}

func TestQGramIndexEvictBelow(t *testing.T) {
	x := newQIdx()
	keys := []string{"monte rosa", "monte bianco", "gran paradiso"}
	for i, k := range keys {
		x.Insert(i, k)
	}
	before := x.Entries()
	dropped := x.EvictBelow(2)
	if dropped <= 0 {
		t.Fatalf("EvictBelow(2) dropped %d entries", dropped)
	}
	if got := x.Entries(); got != before-dropped {
		t.Errorf("Entries = %d, want %d", got, before-dropped)
	}
	// Probing the evicted keys must surface only live refs.
	for _, k := range keys[:2] {
		for _, c := range x.Probe(k, 1) {
			if c.Ref < 2 {
				t.Errorf("probe %q returned evicted ref %d", k, c.Ref)
			}
		}
	}
	// The survivor still probes fine and gram sizes are retained.
	if got := x.Probe("gran paradiso", 2); len(got) != 1 || got[0].Ref != 2 {
		t.Errorf("live ref lost after eviction: %v", got)
	}
	if x.GramSize(0) == 0 {
		t.Error("gram-size bookkeeping lost for evicted ref")
	}
	if x.Indexed() != 3 {
		t.Errorf("Indexed changed to %d", x.Indexed())
	}
	// CatchUp keeps working from the insertion clock.
	if n := x.CatchUp([]string{"monte rosa", "monte bianco", "gran paradiso", "cervino"}); n != 1 {
		t.Errorf("CatchUp inserted %d, want 1", n)
	}
}

// --- dictionary-encoded representation tests ---

// Eviction that empties posting lists leaves dangling dict entries by
// design: the gram keeps its id (Frequency 0), the dict never shrinks,
// and both probing and re-insertion keep working.
func TestQGramIndexEvictionDanglingDictEntries(t *testing.T) {
	x := newQIdx()
	keys := []string{"monte rosa", "monte bianco"}
	for i, k := range keys {
		x.Insert(i, k)
	}
	dictLen := x.Dict().Len()
	if dropped := x.EvictBelow(2); dropped != x.GramSize(0)+x.GramSize(1) {
		t.Fatalf("full eviction dropped %d entries", dropped)
	}
	if x.Dict().Len() != dictLen {
		t.Errorf("eviction changed dict size %d -> %d", dictLen, x.Dict().Len())
	}
	if got := x.Frequency("ros"); got != 0 {
		t.Errorf("Frequency(ros) after eviction = %d, want 0 (dangling entry)", got)
	}
	if x.AvgBucketLen() != 0 {
		t.Errorf("AvgBucketLen over only-empty lists = %v, want 0", x.AvgBucketLen())
	}
	if got := x.Probe("monte rosa", 1); got != nil {
		t.Errorf("probe over fully evicted index = %v", got)
	}
	// Signatures of evicted refs are released, sizes retained.
	if x.Export().Sigs[0] != nil {
		t.Error("evicted ref kept its signature")
	}
	if x.GramSize(0) == 0 {
		t.Error("evicted ref lost its gram size")
	}
	// Re-insertion reuses the dangling ids without renumbering.
	x.Insert(2, "monte rosa")
	if x.Dict().Len() != dictLen {
		t.Errorf("re-insert of known grams grew dict %d -> %d", dictLen, x.Dict().Len())
	}
	if got := x.Probe("monte rosa", x.GramSize(2)); len(got) != 1 || got[0].Ref != 2 {
		t.Errorf("probe after re-insert = %v", got)
	}
}

// A probe whose grams are entirely unknown to the dictionary must
// short-circuit: no candidates, no interning, no allocation.
func TestProbeUnknownGramsShortCircuit(t *testing.T) {
	x := newQIdx()
	x.Insert(0, "monte rosa")
	dictLen := x.Dict().Len()

	var sc ProbeScratch
	var k = x.Extractor().Decompose(&sc.Dec, "zzz qqq www")
	if got := x.ProbeKey(k, 1, &sc); got != nil {
		t.Fatalf("unknown-gram probe = %v", got)
	}
	if x.Dict().Len() != dictLen {
		t.Fatalf("probe interned grams: %d -> %d", dictLen, x.Dict().Len())
	}
	if !raceEnabled {
		if avg := testing.AllocsPerRun(100, func() {
			_ = x.ProbeKey(k, 1, &sc)
		}); avg != 0 {
			t.Errorf("unknown-gram ProbeKey allocated %.1f times", avg)
		}
	}
}

// ProbeKey with a warm scratch is allocation-free even when it yields
// candidates.
func TestProbeKeyZeroAllocs(t *testing.T) {
	x := newQIdx()
	keys := []string{"monte rosa", "monte bianco", "monte viso", "gran paradiso"}
	for i, k := range keys {
		x.Insert(i, k)
	}
	var sc ProbeScratch
	k := x.Extractor().Decompose(&sc.Dec, "monte rosso")
	if got := x.ProbeKey(k, 3, &sc); len(got) == 0 {
		t.Fatal("warmup probe found nothing; workload broken")
	}
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	if avg := testing.AllocsPerRun(200, func() {
		_ = x.ProbeKey(k, 3, &sc)
	}); avg != 0 {
		t.Errorf("ProbeKey allocated %.2f times per op, want 0", avg)
	}
}

// Dict growth across Clone: new keys interned into a clone get fresh
// dense ids, the original's postings and dictionary are untouched, and
// both generations derive the same signature for a shared ref — the
// snapshot-swap contract of the RCU path.
func TestQGramIndexCloneDictGrowth(t *testing.T) {
	x := newQIdx()
	x.Insert(0, "monte rosa")
	origDict := x.Dict().Len()
	origSig := x.Export().Sigs[0]

	c := x.Clone()
	c.Insert(1, "zona franca nuova") // mostly fresh grams
	if c.Dict().Len() <= origDict {
		t.Fatalf("clone dict did not grow: %d <= %d", c.Dict().Len(), origDict)
	}
	if x.Dict().Len() != origDict {
		t.Fatalf("original dict grew with the clone: %d", x.Dict().Len())
	}
	if x.Indexed() != 1 || c.Indexed() != 2 {
		t.Fatalf("indexed counts: orig %d clone %d", x.Indexed(), c.Indexed())
	}
	if got := x.Frequency("zon"); got != 0 {
		t.Errorf("original learned clone-side gram: %d", got)
	}
	if xs, cs := x.Export().Sigs[0], c.Export().Sigs[0]; len(origSig) == 0 || !reflect.DeepEqual(xs, origSig) || !reflect.DeepEqual(cs, origSig) {
		t.Errorf("shared signature diverged: %v / %v / %v", xs, cs, origSig)
	}
	// Both sides probe correctly after the swap.
	if got := c.Probe("zona franca nuova", c.GramSize(1)); len(got) != 1 || got[0].Ref != 1 {
		t.Errorf("clone probe = %v", got)
	}
	if got := x.Probe("monte rosa", x.GramSize(0)); len(got) != 1 || got[0].Ref != 0 {
		t.Errorf("original probe = %v", got)
	}
}

// The count filter's overlap is what a sorted merge over signatures
// would compute — which is why no signature is resident: for any
// candidate, the intersection of the probe's ids and the candidate's
// exported signature equals the overlap the probe reported.
func TestSigSortedMergeMatchesOverlap(t *testing.T) {
	ex := qgram.New(3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := NewQGramIndex(ex)
		keys := make([]string, 10)
		for i := range keys {
			keys[i] = fmt.Sprintf("via %d n %d", rng.Intn(5), rng.Intn(5))
			x.Insert(i, keys[i])
		}
		probe := keys[rng.Intn(len(keys))]
		var sc ProbeScratch
		k := ex.Decompose(&sc.Dec, probe)
		probeSig := x.Dict().AppendIDs(nil, k)
		slices.Sort(probeSig)
		sigs := x.Export().Sigs
		for _, c := range x.ProbeKey(k, 2, &sc) {
			sig := sigs[c.Ref]
			if !slices.IsSorted(sig) || len(sig) != x.GramSize(c.Ref) {
				return false
			}
			if qgram.IntersectSortedIDs(probeSig, sig) != c.Overlap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Candidate-generation microbenchmark: the count filter of §2.2 over
// the dictionary-encoded index with a warm scratch (the probe hot
// path).
func BenchmarkProbeKeyCandidates(b *testing.B) {
	ex := qgram.New(3)
	x := NewQGramIndex(ex)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		x.Insert(i, fmt.Sprintf("VIA %c%c%c %d NORD %d",
			'A'+rng.Intn(26), 'A'+rng.Intn(26), 'A'+rng.Intn(26), rng.Intn(100), rng.Intn(10)))
	}
	var sc ProbeScratch
	k := ex.Decompose(&sc.Dec, "VIA QRS 42 NORD 3")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.ProbeKey(k, 8, &sc)
	}
}

// Non-ASCII BMP keys flow through the inverted index on the rune-packed
// decomposition: inserts and probes agree with the string-gram oracle,
// a one-rune variant is still found, and the zero-alloc probe contract
// holds for Cyrillic keys exactly as for ASCII ones.
func TestQGramIndexNonASCII(t *testing.T) {
	x := newQIdx()
	orig := "САНКТ ПЕТЕРБУРГ НЕВСКИЙ 7"
	x.Insert(0, orig)
	x.Insert(1, "МОСКВА АРБАТ 12")

	ex := x.Extractor()
	for _, g := range ex.Grams(orig) {
		if got := x.Frequency(g); got < 1 {
			t.Errorf("Frequency(%q) = %d, want >= 1", g, got)
		}
	}

	variant := "САНКТ ПЕТЕРБУРГ НЕЖСКИЙ 7" // one-rune substitution
	gv := ex.Count(variant)
	cands := x.Probe(variant, gv-3)
	if len(cands) != 1 || cands[0].Ref != 0 {
		t.Fatalf("Probe(variant) = %v, want the original", cands)
	}

	var sc ProbeScratch
	k := ex.Decompose(&sc.Dec, variant)
	if got := x.ProbeKey(k, gv-3, &sc); len(got) != 1 || got[0].Ref != 0 {
		t.Fatalf("ProbeKey(variant) = %v, want the original", got)
	}
	if raceEnabled {
		return
	}
	if avg := testing.AllocsPerRun(200, func() {
		_ = x.ProbeKey(k, gv-3, &sc)
	}); avg != 0 {
		t.Errorf("non-ASCII ProbeKey allocated %.2f times per op, want 0", avg)
	}
}

// Regression for unbounded dictionary growth under eviction churn: the
// dict accretes every distinct gram ever seen (by design, mid-run), so
// the snapshot boundary must compact it — a checkpoint of a long-lived
// windowed index must be bounded by the LIVE gram population, not by
// stream history. On pre-compaction code (Export instead of
// ExportCompacted) the bound assertion below fails.
func TestExportCompactedBoundsDictUnderChurn(t *testing.T) {
	x := newQIdx()
	const window = 16
	ref := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < window; i++ {
			x.Insert(ref, fmt.Sprintf("churn key %d of round %d", i, round))
			ref++
		}
		x.EvictBelow(ref - window)
	}

	live := 0
	for _, g := range x.Dict().Grams() {
		if x.Frequency(g) > 0 {
			live++
		}
	}
	if x.Dict().Len() <= 2*live {
		t.Fatalf("churn loop built no dict garbage: %d total grams, %d live", x.Dict().Len(), live)
	}

	exp := x.ExportCompacted()
	if len(exp.Grams) > live {
		t.Fatalf("compacted export carries %d grams, want at most the %d live ones", len(exp.Grams), live)
	}

	// The compacted form must still satisfy every import invariant, keep
	// no dead gram, and answer probes identically to the live index.
	y, err := ImportQGramIndex(qgram.New(3), exp)
	if err != nil {
		t.Fatalf("ImportQGramIndex(compacted): %v", err)
	}
	for id, g := range exp.Grams {
		if y.Frequency(g) == 0 {
			t.Fatalf("compacted export kept dead gram %q (id %d)", g, id)
		}
	}
	for i := 0; i < window; i++ {
		k := fmt.Sprintf("churn key %d of round %d", i, 39)
		got := y.Probe(k, 1)
		want := x.Probe(k, 1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %q after compacted round trip = %v, want %v", k, got, want)
		}
	}

	// With nothing evicted, compaction is the identity.
	z := newQIdx()
	z.Insert(0, "monte rosa")
	plain, compact := z.Export(), z.ExportCompacted()
	if !reflect.DeepEqual(plain, compact) {
		t.Errorf("ExportCompacted on an eviction-free index differs from Export")
	}
}
