// Package simfn provides the string similarity functions used by the
// approximate join operator.
//
// The paper measures string similarity with the Jaccard coefficient over
// q-gram sets:
//
//	sim(s1, s2) = |q(s1) ∩ q(s2)| / |q(s1) ∪ q(s2)|
//
// and notes that other q-gram-based functions can be substituted. This
// package therefore exposes Jaccard as the default alongside Dice, cosine
// and overlap coefficients on the same token representation, plus the
// Levenshtein edit distance, which the data generator's tests use to
// check that synthesised variants sit at edit distance one from their
// originals.
package simfn

import (
	"fmt"
	"math"

	"adaptivelink/internal/qgram"
)

// Func scores the similarity of two strings in [0, 1], where 1 means
// identical under the measure.
type Func func(a, b string) float64

// TokenMeasure identifies one of the supported set-based coefficients.
type TokenMeasure int

const (
	// Jaccard is |A∩B| / |A∪B| — the paper's measure.
	Jaccard TokenMeasure = iota
	// Dice is 2|A∩B| / (|A|+|B|).
	Dice
	// Cosine is |A∩B| / sqrt(|A|·|B|).
	Cosine
	// Overlap is |A∩B| / min(|A|,|B|).
	Overlap
)

// String returns the measure name.
func (m TokenMeasure) String() string {
	switch m {
	case Jaccard:
		return "jaccard"
	case Dice:
		return "dice"
	case Cosine:
		return "cosine"
	case Overlap:
		return "overlap"
	default:
		return fmt.Sprintf("TokenMeasure(%d)", int(m))
	}
}

// ParseMeasure is String's inverse over the defined measures: it
// returns the measure String names, and ok false for any other name.
func ParseMeasure(name string) (m TokenMeasure, ok bool) {
	for m = Jaccard; m <= Overlap; m++ {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// Coefficient computes the measure from precomputed set sizes and the
// intersection size. It is the kernel shared by the Func constructors and
// by SSHJoin, which already has the sizes and candidate overlap counts at
// hand. Degenerate cases: two empty sets are identical (1); one empty set
// matches nothing (0).
func (m TokenMeasure) Coefficient(sizeA, sizeB, inter int) float64 {
	if sizeA == 0 && sizeB == 0 {
		return 1
	}
	if sizeA == 0 || sizeB == 0 {
		return 0
	}
	switch m {
	case Jaccard:
		union := sizeA + sizeB - inter
		return float64(inter) / float64(union)
	case Dice:
		return 2 * float64(inter) / float64(sizeA+sizeB)
	case Cosine:
		return float64(inter) / math.Sqrt(float64(sizeA)*float64(sizeB))
	case Overlap:
		return float64(inter) / float64(min(sizeA, sizeB))
	default:
		panic(fmt.Sprintf("simfn: unknown measure %d", int(m)))
	}
}

// Verify scores a candidate pair from precomputed set sizes and
// intersection size and reports whether it reaches theta. It is the
// verification entry point shared by the streaming and resident join
// engines: the count filter of §2.2 already yields the exact distinct
// intersection for every admitted candidate, so verification needs no
// re-extraction and no re-hashing — only this arithmetic.
func (m TokenMeasure) Verify(sizeA, sizeB, inter int, theta float64) (float64, bool) {
	sim := m.Coefficient(sizeA, sizeB, inter)
	return sim, sim >= theta
}

// SimilarityIDs scores two sorted, deduplicated gram-id signatures (as
// produced by qgram.Dict interning) by a sorted-merge intersection: the
// id-based counterpart of TokenSim for callers that verify pairs
// outside a count-filter probe — the nested-loop oracle and the
// blocking verifier — without re-extracting or re-hashing either side.
func (m TokenMeasure) SimilarityIDs(a, b []uint32) float64 {
	return m.Coefficient(len(a), len(b), qgram.IntersectSortedIDs(a, b))
}

// MinOverlap returns the smallest intersection size c such that a pair of
// gram sets with |A| = g (probe side) can still reach similarity ≥ theta
// under the measure, regardless of |B|. SSHJoin uses this as the count
// threshold k of §2.2 ("tuples retrieved at least k times"): candidates
// below the bound cannot qualify and are pruned before verification.
//
// For Jaccard: sim = c/(g+|B|-c) ≥ θ together with |B| ≥ c gives c ≥ θ·g.
// For Dice: 2c/(g+|B|) ≥ θ with |B| ≥ c gives c ≥ θ·g/(2-θ).
// For Cosine: c/sqrt(g·|B|) ≥ θ with |B| ≥ c gives c ≥ θ²·g.
// Overlap admits no probe-only bound beyond c ≥ 1.
func (m TokenMeasure) MinOverlap(g int, theta float64) int {
	if g <= 0 {
		return 0
	}
	if theta <= 0 {
		return 1
	}
	var bound float64
	switch m {
	case Jaccard:
		bound = theta * float64(g)
	case Dice:
		bound = theta * float64(g) / (2 - theta)
	case Cosine:
		bound = theta * theta * float64(g)
	case Overlap:
		bound = 1
	default:
		panic(fmt.Sprintf("simfn: unknown measure %d", int(m)))
	}
	k := int(math.Ceil(bound - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > g {
		k = g
	}
	return k
}

// TokenSim builds a Func that decomposes both strings with the extractor
// and applies the measure to the resulting gram sets.
func TokenSim(m TokenMeasure, e *qgram.Extractor) Func {
	return func(a, b string) float64 {
		ga, gb := e.Grams(a), e.Grams(b)
		inter := qgram.Intersection(ga, gb)
		return m.Coefficient(len(ga), len(gb), inter)
	}
}

// JaccardQGram returns the paper's similarity function: Jaccard over
// padded q-gram sets of width q.
func JaccardQGram(q int) Func {
	return TokenSim(Jaccard, qgram.New(q))
}

// Levenshtein returns the edit distance between a and b (unit costs for
// insert, delete, substitute), computed over runes with a two-row DP in
// O(len(a)·len(b)) time and O(min) space.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		curr[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			curr[j] = min(prev[j]+1, min(curr[j-1]+1, prev[j-1]+cost))
		}
		prev, curr = curr, prev
	}
	return prev[len(rb)]
}
