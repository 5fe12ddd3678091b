// Package shardmap decides which shards a join key belongs to. It is
// the routing layer shared by the partition-parallel streaming executor
// (internal/pjoin), the sharded resident index (internal/join) and the
// cluster tier (internal/cluster): all hash keys the same way, so the
// engine modes co-partition identically and parity statements carry
// across them.
//
// Correctness of the partitioning rests on the co-partitioning
// guarantee: any two keys that can match — by equality, or by q-gram
// similarity at or above the configured threshold — must be routed to
// at least one common shard. PrefixRouter provides it for approximate
// matching via the prefix-filtering principle; KeyRouter provides the
// cheaper equality-only guarantee for joins pinned to exact matching.
package shardmap

import (
	"sort"

	"adaptivelink/internal/qgram"
	"adaptivelink/internal/simfn"
)

// Router decides which shards a join key must be sent to. Routes must be
// deterministic in the key, return at least one shard, and contain no
// duplicates. Routers are used concurrently by the splitter only, but
// implementations must still be safe for concurrent Routes calls because
// tests and future multi-splitter layouts share them.
type Router interface {
	// Routes appends the key's shard indices to dst and returns the
	// extended slice (dst may be nil; its capacity is reused to avoid
	// per-tuple allocation).
	Routes(dst []int, key string) []int
	// Replicates reports whether a key can route to more than one
	// shard. When false, every pair lives in exactly one shard and the
	// merger skips duplicate tracking entirely.
	Replicates() bool
}

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

// KeyRouter routes each key to the single shard owning its hash. Equal
// keys land together, so it co-partitions exact matches with replication
// factor 1 — sufficient for joins that can never probe approximately
// (lex/rex with no controller attached).
type KeyRouter struct {
	shards int
}

// NewKeyRouter returns an equality-only router over the given number of
// shards.
func NewKeyRouter(shards int) *KeyRouter {
	if shards < 1 {
		panic("shardmap: shards < 1")
	}
	return &KeyRouter{shards: shards}
}

// Routes implements Router.
func (r *KeyRouter) Routes(dst []int, key string) []int {
	return append(dst, ShardOf(key, r.shards))
}

// Replicates implements Router: one shard per key, always.
func (r *KeyRouter) Replicates() bool { return false }

// PrefixRouter co-partitions approximate matches: it routes each key to
// the shards owning the q-grams of its prefix-filter signature. For a
// key with g distinct (padded) q-grams and count bound
// k = MinOverlap(g, θ), any partner reaching similarity θ must share at
// least k grams with it, so — ordering grams canonically — the first
// g−k+1 grams of the two keys must intersect (the prefix-filtering
// principle of Chaudhuri et al. / Bayardo et al.). Routing every key to
// the shards of its first g−k+1 canonical grams therefore places every
// qualifying pair, exact pairs included (equal keys have identical
// signatures), in at least one common shard.
//
// The replication factor is min(g−k+1, shards) in the worst case. For
// the paper's θ = 0.75 Jaccard over padded 3-grams, a 25-character key
// has 7 prefix grams, and the factor measured on generated location
// keys is 1.98 at 2 shards and 3.59 at 4. Only the streaming executor
// (internal/pjoin), which must co-partition two inputs it sees once,
// pays it. Everything that holds a resident reference — the sharded
// index (join.ShardedRefIndex) and, no longer routing by signature, the
// cluster tier (internal/cluster) — partitions by ShardOf and probes
// every partition instead.
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

// Routes implements Router.
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
// has already decomposed (with set semantics and a configuration
// matching the router's — same q, no multiset). It returns exactly the
// shards Routes(dst, key) would: a set-mode qgram.Key holds its
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

// Replicates implements Router: prefix signatures span several shards.
func (r *PrefixRouter) Replicates() bool { return r.shards > 1 }
