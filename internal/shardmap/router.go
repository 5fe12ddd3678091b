// Package shardmap is the one placement rule of all three tiers — the
// partition-parallel streaming executor (internal/pjoin), the sharded
// resident index (internal/join) and the cluster tier
// (internal/cluster): a tuple is stored exactly once, in its home shard
// ShardOf(key, N). Equal keys share a home, so an exact probe asks that
// shard alone; an approximate probe asks every shard, each answering
// from its disjoint 1/N of the data, so every pair is found in exactly
// one place and nothing has to be deduplicated. All tiers hash keys with
// the same function, so parity statements carry across them.
package shardmap

import (
	"sort"

	"adaptivelink/internal/qgram"
	"adaptivelink/internal/simfn"
)

// ShardOf hashes a string onto [0, shards) with inlined FNV-1a. It is
// exported because it is the contract for "the shard owning a key": the
// resident index probes exactly ShardOf(key, N) for exact matches, and
// the splitter — the executor's serial section — inlines it so this
// path must not allocate.
func ShardOf(s string, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return int(h % uint32(shards))
}

// ShardOfBytes is ShardOf for a byte window: the same FNV-1a over the
// same bytes yields the same shard, so routing computed from packed
// gram bytes (the dictionary-encoded probe path) agrees with routing
// computed from gram strings.
func ShardOfBytes(b []byte, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= prime32
	}
	return int(h % uint32(shards))
}

// PrefixRouter is the placement the tiers used before ShardOf: it
// replicates each key to the shards owning the q-grams of its
// prefix-filter signature, so that two keys similar enough to match
// always share a shard. It has no production caller any more. It stays
// only because the frozen repository benchmark (benchmark/ledger.go)
// compiles against NewPrefixRouter, Routes and RoutesKey; delete it when
// the benchmark ledger is re-baselined.
//
// For a key with g distinct (padded) q-grams and count bound
// k = MinOverlap(g, θ), any partner reaching similarity θ must share at
// least k grams with it, so — ordering grams canonically — the first
// g−k+1 grams of the two keys must intersect (the prefix-filtering
// principle of Chaudhuri et al. / Bayardo et al.). Routing every key to
// the shards of its first g−k+1 canonical grams therefore places every
// qualifying pair, exact pairs included (equal keys have identical
// signatures), in at least one common shard.
//
// The replication factor is min(g−k+1, shards) in the worst case: for
// the paper's θ = 0.75 Jaccard over padded 3-grams a 25-character key
// has 7 prefix grams, and the factor measured on generated location
// keys is 1.98 at 2 shards and 3.59 at 4.
type PrefixRouter struct {
	shards int
	ex     *qgram.Extractor
	m      simfn.TokenMeasure
	theta  float64
}

// NewPrefixRouter returns a similarity-preserving router. q, m and theta
// must match the join configuration the shards run, or the guarantee is
// void.
func NewPrefixRouter(shards, q int, m simfn.TokenMeasure, theta float64) *PrefixRouter {
	if shards < 1 {
		panic("shardmap: shards < 1")
	}
	return &PrefixRouter{shards: shards, ex: qgram.New(q), m: m, theta: theta}
}

// Routes appends the key's shard indices, sorted and without duplicates,
// to dst and returns the extended slice (dst may be nil; its capacity is
// reused to avoid per-key allocation).
func (r *PrefixRouter) Routes(dst []int, key string) []int {
	grams := r.ex.Grams(key)
	g := len(grams)
	if g == 0 {
		// Degenerate key with no grams: route by the raw key so equal
		// degenerate keys still meet (nothing else can reach θ > 0
		// against an empty gram set).
		return append(dst, ShardOf(key, r.shards))
	}
	// Canonical global gram order: lexicographic. Any fixed total order
	// satisfies the prefix theorem; frequency orders only shrink
	// candidate sets, which routing does not need.
	sorted := qgram.Sorted(grams)
	k := r.m.MinOverlap(g, r.theta)
	if k < 1 {
		k = 1
	}
	prefix := sorted[:g-k+1]
	start := len(dst)
	for _, gr := range prefix {
		s := ShardOf(gr, r.shards)
		dup := false
		for _, have := range dst[start:] {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s)
		}
	}
	sort.Ints(dst[start:])
	return dst
}

// RoutesKey is the allocation-free form of Routes for a key the caller
// has already decomposed (with the router's q). It returns exactly the
// shards Routes(dst, key) would: a qgram.Key holds its
// distinct grams in the same canonical lexicographic order Routes
// sorts into, so the prefix-filter signature is the Key's leading
// g−k+1 grams, hashed without materialising gram strings.
func (r *PrefixRouter) RoutesKey(dst []int, key string, k qgram.Key) []int {
	g := k.Len()
	if g == 0 {
		// Degenerate key with no grams: route by the raw key so equal
		// degenerate keys still meet.
		return append(dst, ShardOf(key, r.shards))
	}
	ko := r.m.MinOverlap(g, r.theta)
	if ko < 1 {
		ko = 1
	}
	var buf [16]byte
	start := len(dst)
	for i := 0; i < g-ko+1; i++ {
		s := ShardOfBytes(k.AppendGram(buf[:0], i), r.shards)
		dup := false
		for _, have := range dst[start:] {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s)
		}
	}
	sort.Ints(dst[start:])
	return dst
}
