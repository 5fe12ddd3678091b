// Package blocking implements the classic offline record-linkage
// machinery the paper's introduction contrasts the adaptive approach
// against: "this complexity can be reduced using blocking techniques,
// whereby records are first partitioned into coarse-grain clusters ...
// Again, this requires that the tables be pre-processed prior to
// linkage."
//
// The package provides standard blocking (per-key block assignment via
// a pluggable key function such as TokenBlocker) and the sorted
// neighbourhood method, both producing candidate pairs that are then
// verified with the same similarity measure as the online operators.
// It exists as a baseline: the `cmd/experiments -offline` comparison and
// the ablation benchmarks quantify what the online adaptive join gives up
// (or not) against an offline pipeline that is allowed to see all the
// data in advance.
package blocking

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"adaptivelink/internal/join"
	"adaptivelink/internal/normalize"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
)

// KeyFunc maps a join-key value to one or more block keys. A pair of
// tuples is a candidate iff the two values share at least one block key.
type KeyFunc func(key string) []string

// TokenBlocker blocks on each whitespace-separated token. A
// single-character variant corrupts at most one token, so values
// sharing any other token still meet — high recall on multi-word keys.
func TokenBlocker() KeyFunc {
	return func(key string) []string {
		fields := strings.Fields(key)
		seen := map[string]struct{}{}
		out := fields[:0]
		for _, f := range fields {
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			out = append(out, f)
		}
		return out
	}
}

// Blocks partitions a relation: block key -> refs of tuples whose value
// produced that key.
func Blocks(rel *relation.Relation, kf KeyFunc) map[string][]int {
	out := make(map[string][]int)
	for i := 0; i < rel.Len(); i++ {
		for _, bk := range kf(rel.At(i).Key) {
			out[bk] = append(out[bk], i)
		}
	}
	return out
}

// Result is an offline linkage outcome with its cost accounting.
type Result struct {
	// Pairs are the verified matches (similarity >= θ or key-equal),
	// sorted by (left, right) ref.
	Pairs []join.Pair
	// CandidatePairs counts distinct pairs sharing a block before
	// verification; Comparisons counts similarity evaluations performed
	// (equal to CandidatePairs — kept separate for SNM, which can
	// generate a candidate more than once but compares once).
	CandidatePairs int
	Comparisons    int
}

// Link performs standard blocking linkage of two relations: build
// blocks on both sides, take the cross product within each block,
// deduplicate, verify with the configured measure. The full nested-loop
// join would perform |L|·|R| comparisons; Comparisons records how many
// blocking actually did.
func Link(cfg join.Config, left, right *relation.Relation, kf KeyFunc) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if kf == nil {
		return nil, fmt.Errorf("blocking: nil key function")
	}
	lb := Blocks(left, kf)
	rb := Blocks(right, kf)

	seen := make(map[[2]int]struct{})
	for bk, lrefs := range lb {
		rrefs, ok := rb[bk]
		if !ok {
			continue
		}
		for _, l := range lrefs {
			for _, r := range rrefs {
				seen[[2]int{l, r}] = struct{}{}
			}
		}
	}
	return verifyPairs(cfg, left, right, seen)
}

// SortedNeighborhood performs the sorted neighbourhood method: both
// relations' values are merged, sorted by a sort key (the normalised
// value by default), and every cross-relation pair within a sliding
// window of the given size becomes a candidate.
func SortedNeighborhood(cfg join.Config, left, right *relation.Relation, window int, sortKey func(string) string) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if window < 2 {
		return nil, fmt.Errorf("blocking: window %d < 2", window)
	}
	if sortKey == nil {
		sortKey = normalize.Standard().Apply
	}
	type entry struct {
		sortVal string
		ref     int
		isLeft  bool
	}
	entries := make([]entry, 0, left.Len()+right.Len())
	for i := 0; i < left.Len(); i++ {
		entries = append(entries, entry{sortKey(left.At(i).Key), i, true})
	}
	for i := 0; i < right.Len(); i++ {
		entries = append(entries, entry{sortKey(right.At(i).Key), i, false})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].sortVal < entries[j].sortVal })

	seen := make(map[[2]int]struct{})
	for i := range entries {
		hi := i + window
		if hi > len(entries) {
			hi = len(entries)
		}
		for j := i + 1; j < hi; j++ {
			a, b := entries[i], entries[j]
			if a.isLeft == b.isLeft {
				continue
			}
			if !a.isLeft {
				a, b = b, a
			}
			seen[[2]int{a.ref, b.ref}] = struct{}{}
		}
	}
	return verifyPairs(cfg, left, right, seen)
}

// verifyPairs scores candidate pairs and keeps those meeting θ, on
// dictionary-encoded signatures: each distinct key is decomposed and
// interned once, and every pair is verified by a sorted-merge
// intersection over gram ids instead of re-extracting and re-hashing
// both gram sets.
func verifyPairs(cfg join.Config, left, right *relation.Relation, cands map[[2]int]struct{}) (*Result, error) {
	ex := qgram.New(cfg.Q)
	dict := qgram.NewDict()
	var dsc qgram.Scratch
	sigCache := make(map[string][]uint32)
	sig := func(s string) []uint32 {
		if g, ok := sigCache[s]; ok {
			return g
		}
		dsc.Reset()
		ids := dict.Intern(nil, ex.Decompose(&dsc, s))
		slices.Sort(ids)
		sigCache[s] = ids
		return ids
	}
	res := &Result{CandidatePairs: len(cands)}
	for pair := range cands {
		lk, rk := left.At(pair[0]).Key, right.At(pair[1]).Key
		res.Comparisons++
		if lk == rk {
			res.Pairs = append(res.Pairs, join.Pair{LeftRef: pair[0], RightRef: pair[1], Similarity: 1, Exact: true})
			continue
		}
		sim := cfg.Measure.SimilarityIDs(sig(lk), sig(rk))
		if sim >= cfg.Theta {
			res.Pairs = append(res.Pairs, join.Pair{LeftRef: pair[0], RightRef: pair[1], Similarity: sim})
		}
	}
	sort.Slice(res.Pairs, func(i, j int) bool {
		if res.Pairs[i].LeftRef != res.Pairs[j].LeftRef {
			return res.Pairs[i].LeftRef < res.Pairs[j].LeftRef
		}
		return res.Pairs[i].RightRef < res.Pairs[j].RightRef
	})
	return res, nil
}

// Recall returns the fraction of oracle pairs the result found (1 when
// the oracle is empty).
func (r *Result) Recall(oracle []join.Pair) float64 {
	if len(oracle) == 0 {
		return 1
	}
	got := make(map[[2]int]struct{}, len(r.Pairs))
	for _, p := range r.Pairs {
		got[[2]int{p.LeftRef, p.RightRef}] = struct{}{}
	}
	hit := 0
	for _, p := range oracle {
		if _, ok := got[[2]int{p.LeftRef, p.RightRef}]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(oracle))
}
