package join

import (
	"fmt"
	"slices"
	"sync"

	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
)

// RefIndex is the sequential single-shard oracle of the resident,
// index-once/probe-many mode: the reference is fully materialised into
// BOTH hash structures of Fig. 3 — the exact attribute-value table and
// the q-gram inverted index, each maintained eagerly on every insert —
// behind one reader/writer lock, with every operation written the
// obvious way. ShardedRefIndex, which shards the reference, swaps RCU
// snapshots and builds its q-gram structures lazily, is held to it by
// the differential harness (shardedref_diff_test.go).
//
// Concurrency: a RefIndex is safe for concurrent use. Probes take a read
// lock and may run in parallel; Upsert holds the write lock for the
// whole batch, so maintenance is applied at quiescent points — the
// write lock is granted only when no probe is in flight, and no probe
// ever observes a half-applied batch.
//
// The store is keyed: one resident record per join key, newest wins —
// on the initial load exactly as on later upserts. Callers whose
// reference carries several records per key must disambiguate the key
// before indexing (see the public NewIndex contract).
type RefIndex struct {
	mu  sync.RWMutex
	cfg Config
	ex  *qgram.Extractor

	tuples []relation.Tuple
	keys   []string
	exIdx  *hashidx.ExactIndex
	qgIdx  *hashidx.QGramIndex
	// newest[key] is the most recent ref carrying that join key, the
	// target of an upsert-by-key payload replacement.
	newest map[string]int
	// pool recycles per-probe scratches (decomposition arena + count
	// filter arrays) across the concurrent probe fleet, keeping the
	// approximate probe hot path allocation-free.
	pool sync.Pool
}

// probeScratch is the pooled per-probe state of a resident index.
type probeScratch struct {
	dsc qgram.Scratch
	psc hashidx.ProbeScratch
}

// NewRefIndex builds an empty resident index under the configuration's
// gram width, measure and threshold (Config.Initial and RetainWindow do
// not apply to the resident mode and are ignored).
func NewRefIndex(cfg Config) (*RefIndex, error) {
	cfg.Initial = LexRex
	cfg.RetainWindow = 0
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ex := qgram.New(cfg.Q)
	r := &RefIndex{
		cfg:    cfg,
		ex:     ex,
		exIdx:  hashidx.NewExactIndex(),
		qgIdx:  hashidx.NewQGramIndex(ex),
		newest: make(map[string]int),
	}
	r.pool.New = func() any { return new(probeScratch) }
	return r, nil
}

// Config returns the index's configuration.
func (r *RefIndex) Config() Config { return r.cfg }

// Len returns the number of resident reference tuples.
func (r *RefIndex) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tuples)
}

// Entries reports the live entry counts of the two indexes (exact refs,
// q-gram postings).
func (r *RefIndex) Entries() (exact, qgrams int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.exIdx.Entries(), r.qgIdx.Entries()
}

// Tuple returns a snapshot of the reference tuple at ref.
func (r *RefIndex) Tuple(ref int) (relation.Tuple, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if ref < 0 || ref >= len(r.tuples) {
		return relation.Tuple{}, fmt.Errorf("join: ref %d outside resident store of %d tuples", ref, len(r.tuples))
	}
	return r.tuples[ref], nil
}

// Upsert applies a batch of reference maintenance at a quiescent point:
// a tuple whose join key is already resident replaces the newest stored
// tuple with that key (payload update — the hash entries are keyed by
// the unchanged join key, so no index surgery is needed); a tuple with a
// new key is appended to the store and inserted into both indexes. It
// returns the inserted and updated counts and a nil error.
func (r *RefIndex) Upsert(tuples []relation.Tuple) (inserted, updated int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range tuples {
		if ref, ok := r.newest[t.Key]; ok {
			r.tuples[ref] = t
			updated++
			continue
		}
		ref := len(r.tuples)
		r.tuples = append(r.tuples, t)
		r.keys = append(r.keys, t.Key)
		r.exIdx.Insert(ref, t.Key)
		r.qgIdx.Insert(ref, t.Key)
		r.newest[t.Key] = ref
		inserted++
	}
	return inserted, updated, nil
}

// ProbeExact matches the key against the reference exactly: a hash
// lookup, the SHJoin probe of §2.2.
func (r *RefIndex) ProbeExact(key string) []RefMatch {
	return r.AppendProbeExact(nil, key)
}

// AppendProbeExact is ProbeExact appending into caller-owned dst: with
// a reusable buffer the exact probe hot path performs zero allocations.
func (r *RefIndex) AppendProbeExact(dst []RefMatch, key string) []RefMatch {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, ref := range r.exIdx.Lookup(key) {
		dst = append(dst, RefMatch{Tuple: r.tuples[ref], Similarity: 1, Exact: true})
	}
	return dst
}

// ProbeApprox matches the key against the reference approximately:
// q-gram candidate generation with the count bound of §2.2 followed by
// similarity verification against θsim — the SSHJoin probe. Key-equal
// pairs are always reported (with similarity 1), exactly as the
// streaming engine's approximate probe reports them, so the approximate
// result is a superset of the exact one.
func (r *RefIndex) ProbeApprox(key string) []RefMatch {
	return r.AppendProbeApprox(nil, key)
}

// AppendProbeApprox is ProbeApprox appending into caller-owned dst.
// Decomposition, candidate generation and verification all run on
// pooled scratch over the dictionary-encoded index, so with a reusable
// dst the approximate probe allocates nothing.
func (r *RefIndex) AppendProbeApprox(dst []RefMatch, key string) []RefMatch {
	sc := r.pool.Get().(*probeScratch)
	sc.dsc.Reset()
	pk := r.ex.Decompose(&sc.dsc, key)
	g := pk.Len()
	k := r.cfg.Measure.MinOverlap(g, r.cfg.Theta)
	base := len(dst)
	r.mu.RLock()
	for _, cand := range r.qgIdx.ProbeKey(pk, k, &sc.psc) {
		sim, ok := r.cfg.Measure.Verify(g, r.qgIdx.GramSize(cand.Ref), cand.Overlap, r.cfg.Theta)
		exact := r.keys[cand.Ref] == key
		if exact {
			sim = 1
		} else if !ok {
			continue
		}
		dst = append(dst, RefMatch{Tuple: r.tuples[cand.Ref], Similarity: sim, Exact: exact})
	}
	r.mu.RUnlock()
	r.pool.Put(sc)
	slices.SortFunc(dst[base:], CompareMatches)
	return dst
}

// Probe matches under the given mode.
func (r *RefIndex) Probe(mode Mode, key string) []RefMatch {
	if mode == Approx {
		return r.ProbeApprox(key)
	}
	return r.ProbeExact(key)
}

// AppendProbe is Probe appending into caller-owned dst.
func (r *RefIndex) AppendProbe(dst []RefMatch, mode Mode, key string) []RefMatch {
	if mode == Approx {
		return r.AppendProbeApprox(dst, key)
	}
	return r.AppendProbeExact(dst, key)
}

// ProbeBatch matches every key under the given mode, returning one
// result slice per key in order. For the sequential reference
// implementation this is definitionally a loop of single probes — the
// semantics the sharded index's amortised batch path is held to by the
// differential harness.
func (r *RefIndex) ProbeBatch(mode Mode, keys []string) [][]RefMatch {
	out := make([][]RefMatch, len(keys))
	for i, k := range keys {
		out[i] = r.Probe(mode, k)
	}
	return out
}

var _ Resident = (*RefIndex)(nil)
