// Package qgram implements q-gram decomposition of strings, the token
// representation used by the approximate join operator SSHJoin and by the
// token-based similarity functions in package simfn.
//
// The set of q-grams of a string s, q(s), is the set of all substrings
// obtained by sliding a window of width q over s (the paper uses q = 3).
// Strings are padded with the conventional '#'/'$' sentinels, which give
// positional weight to prefixes and suffixes: a string of rune-length L
// yields L + q - 1 windows — the |jA| + q - 1 of the paper's cost
// analysis — of which the distinct ones form the set. Decomposition is
// case-sensitive and verbatim; case, accent and width folding belong to
// the normalization profile upstream (package normalize).
package qgram

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// DefaultQ is the gram width used throughout the paper ("typically q=3").
const DefaultQ = 3

// PadLeft and PadRight are the sentinel runes used to pad string ends so
// that prefixes and suffixes contribute q grams each.
const (
	PadLeft  = '#'
	PadRight = '$'
)

// Extractor decomposes strings into padded q-gram sets of a fixed width.
// The zero value is not usable; construct with New.
type Extractor struct {
	q int
}

// New returns an extractor for width q. It panics if q < 1, which is a
// programming error rather than a data error.
func New(q int) *Extractor {
	if q < 1 {
		panic(fmt.Sprintf("qgram: invalid gram width %d", q))
	}
	return &Extractor{q: q}
}

// Q returns the configured gram width.
func (e *Extractor) Q() int { return e.q }

// Grams returns the distinct q-grams of s in first-occurrence order: a
// non-empty string of rune-length L yields the L + q - 1 windows of its
// padded form, deduplicated (the paper's Jaccard coefficient is defined
// on sets); the empty string yields none. It is the string-materialising
// oracle the packed Decompose paths are held to.
func (e *Extractor) Grams(s string) []string {
	if len(s) == 0 {
		return nil
	}
	runes := appendPadded(nil, s, e.q)
	grams := make([]string, 0, len(runes)-e.q+1)
	for i := 0; i+e.q <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+e.q]))
	}
	return dedup(grams)
}

// appendPadded appends s's runes to dst between q-1 leading PadLeft and
// q-1 trailing PadRight sentinels. Invalid UTF-8 decodes to U+FFFD, one
// rune per offending byte, as in a []rune conversion.
func appendPadded(dst []rune, s string, q int) []rune {
	for i := 0; i < q-1; i++ {
		dst = append(dst, PadLeft)
	}
	for _, r := range s {
		dst = append(dst, r)
	}
	for i := 0; i < q-1; i++ {
		dst = append(dst, PadRight)
	}
	return dst
}

// Count returns the number of grams Grams(s) would produce, without
// allocating them whenever the window count provably equals the distinct
// count, and by deduplicating otherwise.
func (e *Extractor) Count(s string) int {
	l := utf8.RuneCountInString(s)
	if l == 0 {
		return 0
	}
	// When the whole string is shorter than q and holds no pad runes, no
	// two padded windows can collide: every window containing leading
	// pads has a distinct '#'-run length, and every window without has a
	// distinct '$'-run length. The window count l+q-1 is therefore
	// already the distinct count.
	if l < e.q && !strings.ContainsRune(s, PadLeft) && !strings.ContainsRune(s, PadRight) {
		return l + e.q - 1
	}
	return len(e.Grams(s))
}

// dedup removes duplicates preserving first-occurrence order.
func dedup(grams []string) []string {
	seen := make(map[string]struct{}, len(grams))
	out := grams[:0]
	for _, g := range grams {
		if _, dup := seen[g]; dup {
			continue
		}
		seen[g] = struct{}{}
		out = append(out, g)
	}
	return out
}

// Intersection returns |a ∩ b| for two gram sets given as slices. Inputs
// need not be sorted or deduplicated; duplicates are counted once.
func Intersection(a, b []string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	set := make(map[string]struct{}, len(a))
	for _, g := range a {
		set[g] = struct{}{}
	}
	n := 0
	for _, g := range b {
		if _, ok := set[g]; ok {
			n++
			delete(set, g) // count each distinct gram once
		}
	}
	return n
}

// Sorted returns a lexicographically sorted copy of grams; used by tests
// and by deterministic diagnostics.
func Sorted(grams []string) []string {
	out := append([]string(nil), grams...)
	sort.Strings(out)
	return out
}
