// Package normalize provides the record-normalisation utilities that
// classic record-linkage toolkits (Potter's Wheel, Ajax, Tailor — see
// §5 of the paper) apply before matching. The adaptive engine does not
// require normalisation, but real join keys benefit from it: applying a
// Normalizer to both inputs before joining removes spurious variants
// (case, whitespace, accents, punctuation) so the similarity budget is
// spent on genuine typos.
//
// Beyond the ad-hoc Step functions, the package defines named
// per-language normalization profiles (ProfileNamed): fixed pipelines
// for Latin, Cyrillic, Greek and CJK keys that the resident index and
// the service thread through their configuration, so both sides of a
// linkage are normalised identically and the choice is recorded in
// snapshot metadata.
//
// The package is dependency-free: canonicalisation and mark stripping
// run on a hand-rolled canonical-decomposition table covering the
// Latin-1 Supplement, Latin Extended-A, Greek tonos/dialytika and the
// Cyrillic Ё/Й compositions — the precomposed letters that actually
// occur in name data — rather than the full Unicode NFC/NFD machinery.
// Runes outside the table pass through unchanged.
package normalize

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Step is a single normalisation transform.
type Step func(string) string

// Normalizer is an ordered pipeline of steps.
type Normalizer struct {
	steps []Step
	// kernel is the pipeline's one-pass form on all-ASCII keys; the
	// registered profiles set it, ad-hoc pipelines do not.
	kernel asciiKernel
}

// NewNormalizer builds a pipeline; steps run in the given order.
func NewNormalizer(steps ...Step) *Normalizer {
	return &Normalizer{steps: append([]Step(nil), steps...)}
}

// Apply runs the pipeline on s. A registered profile's all-ASCII key
// takes its ASCII kernel instead: one pass that returns exactly what
// the steps would, and s itself when s is already normal.
func (n *Normalizer) Apply(s string) string {
	if n.kernel != noKernel {
		if out, ok := n.kernel.apply(s); ok {
			return out
		}
	}
	return n.applySteps(s)
}

func (n *Normalizer) applySteps(s string) string {
	for _, st := range n.steps {
		s = st(s)
	}
	return s
}

// asciiKernel names the one-pass ASCII form of a profile's pipeline. On
// ASCII input every registered profile's steps reduce to one of two
// transforms: accent folding, canonicalisation, mark stripping and width
// folding leave ASCII alone, and simple and full upper-casing agree.
type asciiKernel uint8

const (
	noKernel asciiKernel = iota
	// wordsKernel drops every byte but letters, digits and whitespace,
	// then collapses whitespace: StripPunct + CollapseSpaces.
	wordsKernel
	// upperWordsKernel is wordsKernel with letters upper-cased.
	upperWordsKernel
)

// apply runs the kernel on s, reporting false when s has a non-ASCII
// byte.
func (k asciiKernel) apply(s string) (string, bool) {
	upper := k == upperWordsKernel
	// The longest prefix the steps leave as is: word bytes, and single
	// spaces after one.
	i, prevSpace := 0, true
	for ; i < len(s); i++ {
		c := s[i]
		if isASCIIWord(c, upper) {
			prevSpace = false
		} else if c == ' ' && !prevSpace {
			prevSpace = true
		} else {
			break
		}
	}
	for j := i; j < len(s); j++ {
		if s[j] >= utf8.RuneSelf {
			return "", false
		}
	}
	if i == len(s) && (!prevSpace || s == "") {
		return s, true
	}
	var b strings.Builder
	b.Grow(len(s))
	pending := prevSpace && i > 0 // the prefix ends in a space that may be trailing
	if pending {
		i--
	}
	b.WriteString(s[:i])
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case isASCIIWord(c, false):
			if upper && 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if pending && b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteByte(c)
			pending = false
		case c == ' ' || '\t' <= c && c <= '\r':
			pending = true
		}
	}
	return b.String(), true
}

// isASCIIWord reports whether c is a digit or a letter the kernel
// keeps as is: any letter unless it upper-cases, else an upper-case
// one.
func isASCIIWord(c byte, upper bool) bool {
	return '0' <= c && c <= '9' || 'A' <= c && c <= 'Z' || !upper && 'a' <= c && c <= 'z'
}

// Standard returns the pipeline suitable for location-style join keys:
// accent folding, upper-casing, punctuation removal and whitespace
// collapsing.
func Standard() *Normalizer {
	return profile(upperWordsKernel, FoldAccents, Uppercase, StripPunct, CollapseSpaces)
}

// profile builds a registered pipeline with its ASCII kernel.
func profile(k asciiKernel, steps ...Step) *Normalizer {
	n := NewNormalizer(steps...)
	n.kernel = k
	return n
}

// Uppercase maps the string to upper case (simple, rune-to-rune case
// mapping; use FoldCase for the expanding full fold).
func Uppercase(s string) string { return strings.ToUpper(s) }

// CollapseSpaces trims the ends and squeezes internal whitespace runs
// to single spaces.
func CollapseSpaces(s string) string {
	if collapsed(s) {
		return s
	}
	return strings.Join(strings.Fields(s), " ")
}

// collapsed reports whether CollapseSpaces would return s unchanged: no
// whitespace at either end, and each whitespace rune a single ASCII
// space between two others.
func collapsed(s string) bool {
	prevSpace := true // whitespace at the start is not collapsed
	for _, r := range s {
		space := unicode.IsSpace(r)
		if space && (r != ' ' || prevSpace) {
			return false
		}
		prevSpace = space
	}
	return !prevSpace || s == ""
}

// keepsAll reports whether s is valid UTF-8 and every rune satisfies
// keep: then a step that copies the runes it keeps would rebuild s, and
// returns s itself instead, so already-normal keys cost no allocation.
func keepsAll(s string, keep func(r rune) bool) bool {
	for _, r := range s {
		if !keep(r) || r == utf8.RuneError {
			return false
		}
	}
	return true
}

// StripPunct removes every rune that is neither letter, digit nor
// whitespace (run CollapseSpaces afterwards to canonicalise the
// whitespace it leaves behind).
func StripPunct(s string) string {
	if keepsAll(s, isWordOrSpace) {
		return s
	}
	return stripPunct(s)
}

func stripPunct(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if isWordOrSpace(r) {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func isWordOrSpace(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || unicode.IsSpace(r)
}

// canonDecomp is the canonical-decomposition table: precomposed letter
// → base + combining mark, pairwise (a two-mark letter decomposes to a
// still-composed intermediate, e.g. ΐ → ϊ + acute, and the intermediate
// decomposes further). It covers the precomposed Latin, Greek and
// Cyrillic letters of European name data. Entries come in case pairs —
// if a lowercase letter decomposes, so does its uppercase form — which
// keeps fold-then-upcase pipelines idempotent.
var canonDecomp = map[rune]string{
	// Latin-1 Supplement.
	'à': "à", 'á': "á", 'â': "â", 'ã': "ã", 'ä': "ä", 'å': "å",
	'è': "è", 'é': "é", 'ê': "ê", 'ë': "ë",
	'ì': "ì", 'í': "í", 'î': "î", 'ï': "ï",
	'ò': "ò", 'ó': "ó", 'ô': "ô", 'õ': "õ", 'ö': "ö",
	'ù': "ù", 'ú': "ú", 'û': "û", 'ü': "ü",
	'ç': "ç", 'ñ': "ñ", 'ý': "ý", 'ÿ': "ÿ",
	'À': "À", 'Á': "Á", 'Â': "Â", 'Ã': "Ã", 'Ä': "Ä", 'Å': "Å",
	'È': "È", 'É': "É", 'Ê': "Ê", 'Ë': "Ë",
	'Ì': "Ì", 'Í': "Í", 'Î': "Î", 'Ï': "Ï",
	'Ò': "Ò", 'Ó': "Ó", 'Ô': "Ô", 'Õ': "Õ", 'Ö': "Ö",
	'Ù': "Ù", 'Ú': "Ú", 'Û': "Û", 'Ü': "Ü",
	'Ç': "Ç", 'Ñ': "Ñ", 'Ý': "Ý", 'Ÿ': "Ÿ",
	// Latin Extended-A (the name-frequent subset).
	'ā': "ā", 'ă': "ă", 'ą': "ą", 'Ā': "Ā", 'Ă': "Ă", 'Ą': "Ą",
	'ć': "ć", 'č': "č", 'Ć': "Ć", 'Č': "Č",
	'ē': "ē", 'ė': "ė", 'ę': "ę", 'ě': "ě",
	'Ē': "Ē", 'Ė': "Ė", 'Ę': "Ę", 'Ě': "Ě",
	'ğ': "ğ", 'Ğ': "Ğ", 'ī': "ī", 'į': "į", 'Ī': "Ī", 'Į': "Į",
	'ń': "ń", 'ň': "ň", 'Ń': "Ń", 'Ň': "Ň",
	'ō': "ō", 'ő': "ő", 'Ō': "Ō", 'Ő': "Ő",
	'ŕ': "ŕ", 'ř': "ř", 'Ŕ': "Ŕ", 'Ř': "Ř",
	'ś': "ś", 'ş': "ş", 'š': "š", 'Ś': "Ś", 'Ş': "Ş", 'Š': "Š",
	'ţ': "ţ", 'ť': "ť", 'Ţ': "Ţ", 'Ť': "Ť",
	'ū': "ū", 'ů': "ů", 'ű': "ű", 'ų': "ų",
	'Ū': "Ū", 'Ů': "Ů", 'Ű': "Ű", 'Ų': "Ų",
	'ź': "ź", 'ż': "ż", 'ž': "ž", 'Ź': "Ź", 'Ż': "Ż", 'Ž': "Ž",
	// Greek tonos and dialytika.
	'ά': "ά", 'έ': "έ", 'ή': "ή", 'ί': "ί", 'ό': "ό", 'ύ': "ύ", 'ώ': "ώ",
	'Ά': "Ά", 'Έ': "Έ", 'Ή': "Ή", 'Ί': "Ί", 'Ό': "Ό", 'Ύ': "Ύ", 'Ώ': "Ώ",
	'ϊ': "ϊ", 'ϋ': "ϋ", 'Ϊ': "Ϊ", 'Ϋ': "Ϋ",
	'ΐ': "ΐ", 'ΰ': "ΰ",
	// Cyrillic.
	'ё': "ё", 'Ё': "Ё", 'й': "й", 'Й': "Й",
}

// canonComp is the composition inverse of canonDecomp, built once.
var canonComp = func() map[string]rune {
	m := make(map[string]rune, len(canonDecomp))
	for r, d := range canonDecomp {
		m[d] = r
	}
	return m
}()

// appendDecomposed appends the full canonical decomposition of r
// (recursively expanding pairwise entries) to out.
func appendDecomposed(out []rune, r rune) []rune {
	if d, ok := canonDecomp[r]; ok {
		rs := []rune(d)
		out = appendDecomposed(out, rs[0])
		return append(out, rs[1:]...)
	}
	return append(out, r)
}

// Canonicalize composes decomposed (NFD-style) sequences back into
// their precomposed forms — a limited NFC over the canonDecomp table —
// so that NFC and NFD spellings of the same name become byte-identical.
// Base+mark pairs outside the table pass through unchanged.
func Canonicalize(s string) string {
	runes := []rune(s)
	var b strings.Builder
	b.Grow(len(s))
	have := false
	var pending rune
	for _, r := range runes {
		if have && unicode.Is(unicode.Mn, r) {
			if comp, ok := canonComp[string(pending)+string(r)]; ok {
				pending = comp
				continue
			}
		}
		if have {
			b.WriteRune(pending)
		}
		pending, have = r, true
	}
	if have {
		b.WriteRune(pending)
	}
	return b.String()
}

// StripMarks canonically decomposes each rune (over the canonDecomp
// table) and drops every combining mark (Unicode category Mn), whether
// it arrived precomposed ("é") or as an explicit NFD mark ("e"+U+0301).
// It is the diacritic-stripping Step for languages where marks are
// orthographic decoration; unlike FoldAccents it applies no special
// letter folds (ø, æ, ß pass through).
func StripMarks(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	var buf [4]rune
	for _, r := range s {
		if unicode.Is(unicode.Mn, r) {
			continue
		}
		for _, dr := range appendDecomposed(buf[:0], r) {
			if !unicode.Is(unicode.Mn, dr) {
				b.WriteRune(dr)
			}
		}
	}
	return b.String()
}

// accentFold maps the Latin special letters that have no canonical
// decomposition to their conventional ASCII transliterations. Combined
// with mark stripping this closes the coverage gaps of the historical
// accent map (ø æ œ š ž ł đ ð þ and uppercase forms).
var accentFold = map[rune]string{
	'ø': "o", 'Ø': "O",
	'æ': "ae", 'Æ': "AE",
	'œ': "oe", 'Œ': "OE",
	'ł': "l", 'Ł': "L",
	'đ': "d", 'Đ': "D",
	'ð': "d", 'Ð': "D",
	'þ': "th", 'Þ': "Th",
	'ı': "i", 'İ': "I",
}

// FoldAccents replaces accented letters with their base letters. It
// accepts both precomposed (NFC) and decomposed (NFD) input: a
// combining mark is dropped whether it is fused into the letter ("é")
// or follows it as a separate rune ("e"+U+0301), so both spellings of
// the same name fold to identical bytes. Letters with conventional
// ASCII transliterations but no decomposition (ø æ œ ł đ ð þ ...) fold
// through accentFold; runes covered by neither survive unchanged.
func FoldAccents(s string) string {
	if keepsAll(s, foldsToItself) {
		return s
	}
	return foldAccents(s)
}

func foldAccents(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	var buf [4]rune
	for _, r := range s {
		if rep, ok := accentFold[r]; ok {
			b.WriteString(rep)
			continue
		}
		if unicode.Is(unicode.Mn, r) {
			continue // NFD input: the base letter was already written
		}
		if _, ok := canonDecomp[r]; ok {
			for _, dr := range appendDecomposed(buf[:0], r) {
				if !unicode.Is(unicode.Mn, dr) {
					b.WriteRune(dr)
				}
			}
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// foldsToItself reports whether FoldAccents copies r unchanged.
func foldsToItself(r rune) bool {
	if _, ok := accentFold[r]; ok {
		return false
	}
	if _, ok := canonDecomp[r]; ok {
		return false
	}
	return !unicode.Is(unicode.Mn, r)
}

// fullFold holds the full-case-folding expansions the simple upper-case
// mapping cannot express (one rune becoming several).
var fullFold = map[rune]string{
	'ß': "SS", 'ẞ': "SS",
	'ﬀ': "FF", 'ﬁ': "FI", 'ﬂ': "FL", 'ﬃ': "FFI", 'ﬄ': "FFL", 'ﬅ': "ST", 'ﬆ': "ST",
	'ŉ': "'N", 'ǰ': "J̌", 'ΐ': "Ϊ́", 'ΰ': "Ϋ́",
}

// FoldCase applies full upper-case folding: the simple rune-to-rune
// upper-case mapping plus the expanding folds it cannot express
// (ß→SS, the Latin ligatures, ŉ). Final sigma folds to Σ like any
// other sigma. Unlike Uppercase this can change the rune count, which
// is why the q-gram extractor keeps to the simple fold and expanding
// folds happen here, upstream of decomposition.
func FoldCase(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if rep, ok := fullFold[r]; ok {
			b.WriteString(rep)
			continue
		}
		b.WriteRune(unicode.ToUpper(r))
	}
	return b.String()
}

// FoldWidth folds the NFKC width variants that dominate CJK key data:
// fullwidth ASCII forms (Ａ-Ｚ, ０-９, ！-～) narrow to their ASCII
// counterparts and the ideographic space U+3000 becomes a plain space.
// Halfwidth katakana and the remaining compatibility forms are out of
// scope and pass through.
func FoldWidth(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r == '　':
			b.WriteRune(' ')
		case r >= '！' && r <= '～':
			b.WriteRune(r - 0xFEE0)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// DefaultProfile is the profile name meaning "no normalization": keys
// are indexed and probed verbatim, the engine's historical behaviour.
const DefaultProfile = ""

// profilePipelines names the per-language normalization pipelines. The
// registry is fixed at build time: a profile name stored in snapshot
// metadata must mean the same pipeline forever, so renaming or
// re-ordering an existing profile's steps is a compatibility break
// (add a new name instead). A profile's ASCII kernel must return what
// its steps return on every ASCII key; FuzzNormalize checks them all.
var profilePipelines = map[string]func() *Normalizer{
	DefaultProfile: func() *Normalizer { return NewNormalizer() },
	"standard":     Standard,
	// Latin with diacritics (French, Italian, Czech, Polish, Turkish,
	// Nordic ...): canonicalise spelling, fold accents and special
	// letters to ASCII base letters, then full case fold — folding
	// before casing keeps mixed-case transliterations (Þ→Th) from
	// leaking into the upper-cased output — and strip punctuation.
	"latin": func() *Normalizer {
		return profile(upperWordsKernel, Canonicalize, FoldAccents, FoldCase, StripPunct, CollapseSpaces)
	},
	// Cyrillic: fold the Ё/Й mark compositions (so NFC and NFD agree and
	// е/ё variant spellings match), full case fold, strip punctuation.
	"cyrillic": func() *Normalizer {
		return profile(upperWordsKernel, Canonicalize, FoldAccents, FoldCase, StripPunct, CollapseSpaces)
	},
	// Greek: strip tonos/dialytika (so ΜΑΡΊΑ and ΜΑΡΙΑ match), full case
	// fold — final sigma folds with the rest — and strip punctuation.
	"greek": func() *Normalizer {
		return profile(upperWordsKernel, Canonicalize, FoldCase, StripMarks, StripPunct, CollapseSpaces)
	},
	// CJK: fold fullwidth/halfwidth width variants and the ideographic
	// space; no case or accent folding applies.
	"cjk": func() *Normalizer {
		return profile(wordsKernel, FoldWidth, StripPunct, CollapseSpaces)
	},
}

// Profiles returns the registered profile names in sorted order, the
// empty default first.
func Profiles() []string {
	out := make([]string, 0, len(profilePipelines))
	for name := range profilePipelines {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ProfileNamed returns the named per-language normalization pipeline.
// The empty name is the identity profile (no steps). Unknown names are
// an error listing the registry, so a typo in configuration or a
// snapshot written by a newer build fails loudly instead of silently
// indexing unnormalised keys.
func ProfileNamed(name string) (*Normalizer, error) {
	mk, ok := profilePipelines[name]
	if !ok {
		return nil, fmt.Errorf("normalize: unknown profile %q (have %q)", name, Profiles())
	}
	return mk(), nil
}
