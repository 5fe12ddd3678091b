package join

import (
	"slices"
	"sort"

	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
)

// Pair is a result of the nested-loop oracle: refs are positions in the
// respective relations.
type Pair struct {
	LeftRef    int
	RightRef   int
	Similarity float64
	Exact      bool
}

// NestedLoopExact computes the exact join of two relations by brute
// force: every key-equal pair. It is the correctness oracle for SHJoin.
func NestedLoopExact(left, right *relation.Relation) []Pair {
	var out []Pair
	for i := 0; i < left.Len(); i++ {
		for j := 0; j < right.Len(); j++ {
			if left.At(i).Key == right.At(j).Key {
				out = append(out, Pair{LeftRef: i, RightRef: j, Similarity: 1, Exact: true})
			}
		}
	}
	sortPairs(out)
	return out
}

// NestedLoopApprox computes the approximate join of two relations by
// brute force under the given configuration: every pair whose verified
// similarity reaches θsim (key-equal pairs always qualify with
// similarity 1). It is the O(n²) comparison baseline the paper's
// blocking discussion motivates, and the correctness oracle for SSHJoin.
//
// Verification runs on dictionary-encoded signatures: each key is
// decomposed once, interned into a local dict, and every pair is scored
// by a sorted-merge intersection over uint32 ids — no per-pair maps, no
// re-extraction.
func NestedLoopApprox(cfg Config, left, right *relation.Relation) ([]Pair, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ex := qgram.New(cfg.Q)
	dict := qgram.NewDict()
	var dsc qgram.Scratch
	sig := func(s string) []uint32 {
		dsc.Reset()
		ids := dict.Intern(nil, ex.Decompose(&dsc, s))
		slices.Sort(ids)
		return ids
	}
	rg := make([][]uint32, right.Len())
	for j := 0; j < right.Len(); j++ {
		rg[j] = sig(right.At(j).Key)
	}
	var out []Pair
	for i := 0; i < left.Len(); i++ {
		lk := left.At(i).Key
		lg := sig(lk)
		for j := 0; j < right.Len(); j++ {
			if lk == right.At(j).Key {
				out = append(out, Pair{LeftRef: i, RightRef: j, Similarity: 1, Exact: true})
				continue
			}
			sim := cfg.Measure.SimilarityIDs(lg, rg[j])
			if sim >= cfg.Theta {
				out = append(out, Pair{LeftRef: i, RightRef: j, Similarity: sim})
			}
		}
	}
	sortPairs(out)
	return out, nil
}

// PairsOf projects engine matches to oracle-comparable pairs, sorted.
// An empty match set yields nil so results compare cleanly against the
// nested-loop oracles, which build their outputs by appending.
func PairsOf(matches []Match) []Pair {
	if len(matches) == 0 {
		return nil
	}
	out := make([]Pair, len(matches))
	for i, m := range matches {
		out[i] = Pair{LeftRef: m.LeftRef, RightRef: m.RightRef, Similarity: m.Similarity, Exact: m.Exact}
	}
	sortPairs(out)
	return out
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].LeftRef != ps[j].LeftRef {
			return ps[i].LeftRef < ps[j].LeftRef
		}
		return ps[i].RightRef < ps[j].RightRef
	})
}
