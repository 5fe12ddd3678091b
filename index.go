package adaptivelink

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"adaptivelink/internal/adaptive"
	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/normalize"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/store"
	"adaptivelink/internal/stream"
)

// IndexOptions configures a resident Index. The zero value selects the
// paper's matching defaults (q = 3, Jaccard, calibrated θsim) and one
// shard per hardware thread.
type IndexOptions struct {
	// Q is the q-gram width (default 3).
	Q int
	// Theta is the similarity threshold θsim (default 0.75).
	Theta float64
	// Measure is the similarity coefficient (default Jaccard).
	Measure Measure
	// Shards is the number of independent index shards (default
	// GOMAXPROCS). The reference is hash-partitioned by join key, so
	// every reference is stored once whatever the count; probes are
	// lock-free at any shard count, and more shards spread a batch's
	// approximate probes (each reads all shards, 1/Shards of the
	// postings apiece) across cores and shrink the slice an upsert
	// copies. The match contract is shard-count-independent.
	Shards int
	// Profile names the normalization pipeline applied to every join
	// key on its way into the index — upserts and probes alike — so
	// that keys differing only in case, accents, Unicode composition
	// form or width still link. "" (the default) indexes keys verbatim.
	// See Profiles for the registry ("latin", "cyrillic", "greek",
	// "cjk", "standard"). The profile is part of a durable index's
	// compatibility tuple: a stored index refuses to open under a
	// different profile than the one that built its keys.
	Profile string
	// Storage configures durability. The zero value is a purely
	// in-memory index; see Open and BulkLoad for the durable
	// constructors.
	Storage StorageOptions
}

// Profiles lists the normalization profile names accepted by
// IndexOptions.Profile, sorted; the empty name (index keys verbatim) is
// included.
func Profiles() []string { return normalize.Profiles() }

// SessionOptions configures a probe Session. The zero value selects an
// adaptive session with the paper's thresholds, except that DeltaAdapt
// defaults to 1: a resident-mode switch has no index catch-up to pay
// for, so the control loop can afford to assess after every probe and
// escalate the very probe that exposed a deficit.
type SessionOptions struct {
	// Strategy selects per-session matching: Adaptive (default) starts
	// exact and lets the deficit assessor escalate, ExactOnly and
	// ApproximateOnly pin the probe operator.
	Strategy Strategy

	// W is the perturbation sliding-window size in probes (default 100).
	W int
	// DeltaAdapt is the number of probes between control-loop
	// activations (default 1).
	DeltaAdapt int
	// ThetaOut is the outlier significance level (default 0.05).
	ThetaOut float64
	// ThetaCurPert is the maximum windowed approximate-match rate for
	// the probe stream to count as unperturbed (default 0.02).
	ThetaCurPert float64
	// ThetaPastPert is the maximum number of past perturbed assessments
	// for the probe stream to count as historically clean (default 3).
	ThetaPastPert int

	// FutilityK, when positive, reverts to exact probing after K
	// consecutive assessments in the approximate state that produced no
	// new approximate matches. Recommended for open-world probe streams:
	// under the resident parent-child model a probe key with no
	// reference counterpart at all leaves a permanent deficit, and the
	// futility rule is what stops it pinning the session to approximate
	// probing forever. 0 disables it.
	FutilityK int
	// CostBudget, when positive, pins the session to exact probing once
	// its modelled cost (all-exact-step units under the paper's weight
	// model) reaches the budget. 0 disables it.
	CostBudget float64
	// TraceActivations records every control-loop activation for
	// inspection via Session.Activations.
	TraceActivations bool
	// Explain records a per-key decision trace — mode, hit, escalation,
	// the control-loop events the probe triggered, and the modelled
	// spend after it — retrievable via Session.Decisions. Explain mode
	// allocates per probe (the no-explain path stays allocation-free on
	// exact hits); leave it off for production traffic and flip it on to
	// diagnose a stream.
	Explain bool
}

// ProbeMatch is one probe result: a matched reference tuple (Ref) with
// its similarity evidence (Similarity is 1 for key-equal matches,
// otherwise the verified similarity under the index's measure; Exact
// reports key equality). It is the engine's own match type, so probe
// results reach the caller as the resident built them, uncopied.
//
// A key's matches are ordered by their content, wherever they are
// computed (one shard, many, or a cluster's node groups): the key-equal
// match first, then similarity descending, then the reference key
// bytewise. The store holds each key once, so the order is total and
// never depends on the order the references were written in.
type ProbeMatch = join.RefMatch

// Index is the resident, index-once/probe-many engine mode: the
// reference table is materialised into the exact hash table —
// hash-partitioned by join key into IndexOptions.Shards disjoint shards
// — and then probed many times by independent clients. A shard's q-gram
// inverted index is built by the first approximate probe to reach it
// and maintained by every upsert after that.
//
// An Index is safe for concurrent use and its probe path is lock-free
// (exact probes always, approximate probes once their shards are
// built): each shard publishes an immutable snapshot through an atomic pointer,
// a probe reads the snapshot of its key's home shard (exact) or of
// every shard (approximate), and
// Upsert builds replacement snapshots off-path and swaps them in
// (RCU-style), so probes never wait on maintenance and maintenance
// never waits on probes. Consistency model: a probe sees a
// point-in-time state of each shard it reads, upserts are atomic per
// key (a probe observes a key's old payload or its new one, never a
// mix), and a cross-shard batch is per-shard-consistent. Sessions are
// per-client state and are NOT safe for concurrent use — give each
// goroutine its own.
type Index struct {
	// res holds the resident engine behind an atomic pointer so a full
	// snapshot restore (anti-entropy resync) can swap the whole backend
	// while probes stay lock-free; everyday reads go through resident().
	res  atomic.Pointer[join.Resident]
	opts IndexOptions
	// norm is the resolved Profile pipeline; every key entering the
	// index — by upsert or by probe — passes through it, so the engine
	// below only ever sees normalised keys (and durable artifacts store
	// them that way).
	norm *normalize.Normalizer

	// mu serializes the write side of a durable index so the WAL's
	// record order equals the apply order (replay depends on it: the
	// store is keyed, newest wins). Probes never take it.
	mu  sync.Mutex
	dir *store.Dir // nil for an in-memory index
	// closed is set by Close, after which every write refuses with
	// ErrIndexClosed. An in-memory upsert reads it without taking mu.
	closed atomic.Bool
	// rec records what Open reconstructed (nil unless the index came
	// from Open); see RecoveryInfo.
	rec *store.Recovery
}

// resident loads the current engine. One atomic load; the interface
// value is copied out of the pointee, so probe paths stay
// allocation-free.
func (ix *Index) resident() join.Resident { return *ix.res.Load() }

// setResident publishes a replacement engine. Writers hold ix.mu when
// the swap must be ordered against the WAL (RestoreSnapshot does);
// construction stores before the index escapes.
func (ix *Index) setResident(r join.Resident) { ix.res.Store(&r) }

// newIndex wires an Index around a resident engine.
func newIndex(r join.Resident, opts IndexOptions) *Index {
	ix := &Index{opts: opts, norm: opts.normalizer()}
	ix.setResident(r)
	return ix
}

// NewIndex drains the reference source and builds a resident index over
// it. Like the streaming join, it keeps the lazy-maintenance saving of
// §2.3: only the exact hash structure is built here, and each shard's
// q-gram index is built — caught up with every key the shard holds — by
// the first approximate probe into it, which pays that build once.
//
// The Index is a KEYED store: one resident record per join key, newest
// wins. That is the upsert contract — and it applies to the initial
// load too, so a reference source containing several tuples with the
// same join key keeps only the last one. This matches the paper's
// parent-table model (unique location strings) and is what makes
// incremental maintenance well-defined; it differs from the batch join,
// which stores duplicate-keyed tuples separately and reports a match
// per duplicate. The probe-vs-batch parity guarantee therefore
// quantifies over key-unique references. If your reference legitimately
// carries several records per key, disambiguate the key (e.g. append a
// discriminator column) before indexing.
func NewIndex(ref Source, opts IndexOptions) (*Index, error) {
	if opts.Storage.Dir != "" {
		return nil, fmt.Errorf("adaptivelink: NewIndex builds in-memory indexes; use Open (or BulkLoad) for Storage.Dir %q", opts.Storage.Dir)
	}
	return BulkLoad(ref, opts)
}

// resolved applies the option defaults and validates what cannot be
// defaulted: every constructor, the remote one included, rejects a bad
// configuration here, before it builds or contacts anything.
func (opts IndexOptions) resolved() (IndexOptions, error) {
	if opts.Q == 0 {
		opts.Q = 3
	}
	if opts.Theta == 0 {
		opts.Theta = join.DefaultTheta
	}
	if opts.Shards < 0 {
		return opts, fmt.Errorf("adaptivelink: negative shard count %d", opts.Shards)
	}
	if opts.Shards == 0 {
		opts.Shards = runtime.GOMAXPROCS(0)
	}
	if _, err := normalize.ProfileNamed(opts.Profile); err != nil {
		return opts, fmt.Errorf("adaptivelink: %w", err)
	}
	if err := opts.config().Validate(); err != nil {
		return opts, fmt.Errorf("adaptivelink: %w", err)
	}
	return opts, nil
}

// normalizer resolves the profile pipeline of validated options.
func (opts IndexOptions) normalizer() *normalize.Normalizer {
	n, err := normalize.ProfileNamed(opts.Profile)
	if err != nil {
		// resolved() vets the name first; reaching here is a programming
		// error, not a configuration one.
		panic(err)
	}
	return n
}

// normKey applies the index's normalization profile to one join key.
func (ix *Index) normKey(key string) string {
	if ix.opts.Profile == "" {
		return key
	}
	return ix.norm.Apply(key)
}

// normKeys applies the profile to a batch of keys, returning the input
// slice untouched under the verbatim profile.
func (ix *Index) normKeys(keys []string) []string {
	if ix.opts.Profile == "" {
		return keys
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = ix.norm.Apply(k)
	}
	return out
}

// config expands resolved options to the engine configuration.
func (opts IndexOptions) config() join.Config {
	return join.Config{
		Q:       opts.Q,
		Theta:   opts.Theta,
		Measure: simfn.TokenMeasure(opts.Measure),
		Initial: join.LexRex,
		Profile: opts.Profile,
	}
}

// meta is the compatibility tuple durable artifacts are bound to.
func (opts IndexOptions) meta() store.Meta {
	return store.Meta{Q: opts.Q, Theta: opts.Theta, Measure: simfn.TokenMeasure(opts.Measure), Shards: opts.Shards, Profile: opts.Profile}
}

// Len returns the number of resident reference tuples.
func (ix *Index) Len() int { return ix.resident().Len() }

// Options returns the index's matching configuration. Shards is the
// shard count of the resident engine the index serves, so after an
// in-memory RestoreSnapshot adopted another layout it reports the
// adopted one; a remote index reports the cluster's logical count.
func (ix *Index) Options() IndexOptions {
	opts := ix.opts
	if sr, ok := ix.resident().(*join.ShardedRefIndex); ok {
		opts.Shards = sr.Shards()
	}
	return opts
}

// Upsert applies reference maintenance at a quiescent point: tuples
// whose join key is already resident replace the stored payload, tuples
// with new keys are appended and indexed. It returns the inserted and
// updated counts. Safe to call concurrently with probes; in-flight
// probes complete against the previous version and later probes see the
// whole batch.
//
// On a durable index the batch is appended to the write-ahead log
// before it is applied — under SyncAlways it is on stable storage
// before Upsert returns, so an acknowledged upsert survives a crash. An
// upsert into an empty index is a bulk load that builds the shards
// beside the append and publishes them only once it succeeded. A
// non-nil error means the batch was NOT applied (the index is
// unchanged); a local in-memory index returns one only once closed
// (ErrIndexClosed), a remote index also its resident's (a cluster node
// group below quorum).
func (ix *Index) Upsert(tuples ...Tuple) (inserted, updated int, err error) {
	if len(tuples) == 0 {
		return 0, 0, nil
	}
	// Normalise a copy (the caller's slice is left as passed) before
	// logging: WAL frames and snapshots hold keys in their indexed form,
	// so recovery never re-normalises. The verbatim profile has nothing
	// to normalise, and the index reads the batch without keeping it.
	rts := tuples
	if ix.opts.Profile != "" {
		rts = slices.Clone(tuples)
		for i := range rts {
			rts[i].Key = ix.norm.Apply(rts[i].Key)
		}
	}
	if ix.dir == nil {
		if ix.closed.Load() {
			return 0, 0, ErrIndexClosed
		}
		return ix.resident().Upsert(rts)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed.Load() {
		return 0, 0, ErrIndexClosed
	}
	// A durable index's resident is local. Its first rows are a bulk
	// load, built beside their log append and published after it.
	return ix.resident().(*join.ShardedRefIndex).UpsertLogged(rts, func() error {
		if err := ix.dir.Append(rts); err != nil {
			return fmt.Errorf("adaptivelink: logging upsert: %w", err)
		}
		return nil
	})
}

// Probe is the sessionless one-shot probe: it matches the key exactly
// and, only when no exact match exists, escalates to one approximate
// probe. This is the completeness-first convenience for callers without
// session state; it is safe for concurrent use. Clients with a probe
// stream should prefer NewSession, whose deficit-driven loop skips the
// escalation entirely while the stream is behaving and prices it
// statistically when it is not.
func (ix *Index) Probe(key string) []ProbeMatch {
	key = ix.normKey(key)
	res := ix.resident().Probe(join.Exact, key)
	if len(res) == 0 {
		res = ix.resident().Probe(join.Approx, key)
	}
	return res
}

// ProbeBatch is the sessionless batch probe: every key is matched
// exactly in one amortised pass, and only the keys with no exact match
// are then matched approximately in a second pass — the batch shape of
// Probe's exact-then-escalate policy. Results are returned per key in
// request order. Safe for concurrent use.
func (ix *Index) ProbeBatch(keys ...string) [][]ProbeMatch {
	if len(keys) == 0 {
		return [][]ProbeMatch{}
	}
	keys = ix.normKeys(keys)
	results := ix.resident().ProbeBatch(join.Exact, keys)
	var missIdx []int
	var missKeys []string
	for i, rm := range results {
		if len(rm) == 0 {
			missIdx = append(missIdx, i)
			missKeys = append(missKeys, keys[i])
		}
	}
	if len(missKeys) > 0 {
		for j, rm := range ix.resident().ProbeBatch(join.Approx, missKeys) {
			results[missIdx[j]] = rm
		}
	}
	return results
}

// SessionStats summarises a session's execution.
type SessionStats struct {
	// Probes is the number of probes run; Hits how many found at least
	// one match (the observed result size the deficit test consumes).
	Probes int
	Hits   int
	// Matches counts result pairs; Exact + Approx = Matches.
	Matches       int
	ExactMatches  int
	ApproxMatches int
	// Escalations counts probes that missed under exact matching, fired
	// the deficit predicate and were re-run approximately.
	Escalations int
	// Switches counts enacted operator switches (0 for fixed strategies).
	Switches int
	// State is the session's processor state name; the probe-side mode
	// (the suffix) is what matching consults.
	State string
	// ModelledCost is the session's cost in all-exact-step units under
	// the paper's weight model: exact probes cost w_EE, approximate
	// probes w_EA, switches the target state's transition weight.
	ModelledCost float64
}

// Session is a per-client probe stream over a shared Index, carrying the
// Monitor–Assess–Respond statistics that batch runs keep per run: the
// deficit test, the perturbation window and the escalation history are
// all scoped to this session, so one misbehaving client escalates only
// itself. Not safe for concurrent use.
type Session struct {
	ix       *Index
	strategy Strategy
	// loop is the session's control loop; nil for the fixed strategies.
	loop  *adaptive.ProbeLoop
	stats SessionStats
	// explain, when non-nil, records a KeyDecision per settled key; see
	// explain.go. The default path pays one nil check for it.
	explain *explainState
}

// NewSession opens a probe session on the index.
func (ix *Index) NewSession(opts SessionOptions) (*Session, error) {
	if opts.CostBudget < 0 {
		return nil, fmt.Errorf("adaptivelink: negative cost budget %v", opts.CostBudget)
	}
	s := &Session{ix: ix, strategy: opts.Strategy}
	if opts.Explain {
		s.explain = &explainState{}
	}
	switch opts.Strategy {
	case ExactOnly, ApproximateOnly:
		return s, nil
	case Adaptive:
	default:
		return nil, fmt.Errorf("adaptivelink: unknown strategy %d", int(opts.Strategy))
	}
	p := adaptive.DefaultProbeParams()
	if opts.W != 0 {
		p.W = opts.W
	}
	if opts.DeltaAdapt != 0 {
		p.DeltaAdapt = opts.DeltaAdapt
	}
	if opts.ThetaOut != 0 {
		p.ThetaOut = opts.ThetaOut
	}
	if opts.ThetaCurPert != 0 {
		p.ThetaCurPert = opts.ThetaCurPert
	}
	if opts.ThetaPastPert != 0 {
		p.ThetaPastPert = opts.ThetaPastPert
	}
	if opts.FutilityK != 0 {
		p.FutilityK = opts.FutilityK
	}
	loop, err := adaptive.NewProbeLoop(p)
	if err != nil {
		return nil, fmt.Errorf("adaptivelink: %w", err)
	}
	// Explain decisions are cut from the loop's own trace.
	if err := armLoop(loop, opts.TraceActivations || opts.Explain, opts.CostBudget); err != nil {
		return nil, err
	}
	s.loop = loop
	return s, nil
}

// Probe matches one key against the reference under the session's
// current operator. Adaptive sessions probe exactly while the stream
// behaves; when the deficit assessor fires, the session switches to
// approximate probing — re-running the very probe whose miss fired the
// predicate, so its variant matches are not lost — and reverts to exact
// once the perturbation window drains.
func (s *Session) Probe(key string) []ProbeMatch {
	return s.probeKey(s.ix.normKey(key))
}

// probeKey is the per-key decision step: probe the (normalised) key
// under the current operator, let the loop observe the outcome, settle.
func (s *Session) probeKey(key string) []join.RefMatch {
	mode := s.mode()
	res := s.ix.resident().Probe(mode, key)
	escalate := s.loop != nil && s.loop.NoteProbe(s.ix.Len(), len(res) > 0, countApprox(res))
	return s.settle(key, mode, res, escalate)
}

// settle finishes one key the loop has already observed, for the
// per-key and the batch path alike. escalate is the loop's verdict that
// this probe missed under exact matching and switched the session to
// approximate probing: the key is re-run approximately — through the
// resident's Probe, so decorators see it — and the re-probe reported
// back. The final result feeds the session counters and, in explain
// mode, the key's decision record.
func (s *Session) settle(key string, mode join.Mode, res []join.RefMatch, escalate bool) []join.RefMatch {
	if escalate {
		res = s.ix.resident().Probe(join.Approx, key)
		s.loop.NoteEscalation(len(res) > 0, countApprox(res))
		s.stats.Escalations++
	}
	s.stats.Probes++
	if len(res) > 0 {
		s.stats.Hits++
	}
	for _, m := range res {
		s.stats.Matches++
		if m.Exact {
			s.stats.ExactMatches++
		} else {
			s.stats.ApproxMatches++
		}
	}
	if s.explain != nil {
		s.explain.record(s, key, mode, res, escalate)
	}
	return res
}

// approxSpeculate caps how many keys an adaptive batch probes ahead
// while the session is in the approximate state; see ProbeBatch.
const approxSpeculate = 1

// ProbeBatch probes a batch of keys as this session, one result slice
// per key in request order. It is semantically identical to calling
// Probe on each key — same matches, same statistics, same control-loop
// trajectory — but amortises routing and snapshot loads per shard-group
// and, on multi-core hosts, fans the shard groups out concurrently.
//
// Adaptive sessions run the batch in sub-batches probed under the
// current operator, feeding the outcomes to the control loop in probe
// order; if the loop switches operators mid-batch (including the
// per-probe escalation of a miss that fired σ), results computed under
// the stale operator are discarded and the remainder is re-probed under
// the new one, exactly as if those keys had not been probed yet.
func (s *Session) ProbeBatch(keys []string) [][]ProbeMatch {
	if len(keys) == 0 {
		return [][]ProbeMatch{}
	}
	keys = s.ix.normKeys(keys)
	if s.loop == nil {
		// A fixed strategy never re-probes: each key is settled in place
		// in the resident's batch slice.
		mode := s.mode()
		results := s.ix.resident().ProbeBatch(mode, keys)
		for i, rm := range results {
			s.settle(keys[i], mode, rm, false)
		}
		return results
	}
	results := make([][]ProbeMatch, len(keys))
	for i := 0; i < len(keys); {
		mode := s.loop.Mode()
		sub := keys[i:]
		// Results computed past a mid-batch operator switch are thrown
		// away. Wasted exact probes are cheap (w_EE = 1), so the exact
		// path speculates on the whole remainder; approximate probes
		// cost ~50× and reverts are frequent right after an escalation,
		// so the approximate path speculates only a few keys ahead. An
		// explain session's decision record attributes activations and
		// spend to the key that caused them, so it feeds the loop one
		// key at a time. Chunking is split-invariant, hence invisible in
		// results and statistics (pinned by
		// TestSessionProbeBatchMatchesSequential and
		// TestExplainBatchMatchesSequential).
		switch {
		case s.explain != nil:
			sub = sub[:1]
		case mode == join.Approx && len(sub) > approxSpeculate:
			sub = sub[:approxSpeculate]
		}
		rms := s.ix.resident().ProbeBatch(mode, sub)
		outs := make([]adaptive.BatchOutcome, len(rms))
		for j, rm := range rms {
			outs[j] = adaptive.BatchOutcome{Hit: len(rm) > 0, ApproxMatches: countApprox(rm)}
		}
		consumed, escalate := s.loop.NoteBatch(s.ix.Len(), outs)
		for j := 0; j < consumed; j++ {
			results[i+j] = s.settle(sub[j], mode, rms[j], escalate && j == consumed-1)
		}
		i += consumed
	}
	return results
}

// state is the session's processor state; fixed strategies report the
// state their probe operator corresponds to.
func (s *Session) state() join.State {
	switch s.strategy {
	case ExactOnly:
		return join.LexRex
	case ApproximateOnly:
		return join.LapRap
	default:
		return s.loop.State()
	}
}

// mode is the probe operator in force: the probe side's mode, which is
// all of the state that matching consults.
func (s *Session) mode() join.Mode { return s.state().Mode(stream.Right) }

// State returns the session's processor state name.
func (s *Session) State() string { return s.state().String() }

// spend is the session's modelled cost so far: the loop's own
// accounting (escalated re-probes and transitions included), or the
// pure cost of a fixed strategy's probes.
func (s *Session) spend() float64 {
	if s.loop != nil {
		return s.loop.Spend()
	}
	return metrics.PureCost(s.stats.Probes, s.state(), metrics.PaperWeights())
}

// Stats returns a snapshot of the session's counters.
func (s *Session) Stats() SessionStats {
	out := s.stats
	out.State = s.State()
	out.ModelledCost = s.spend()
	if s.loop != nil {
		out.Switches = s.loop.Switches()
	}
	return out
}

// Activations returns the session's recorded control-loop trace: nil
// unless the session is adaptive and SessionOptions.TraceActivations
// (or Explain, whose decisions are cut from the same trace) was set.
func (s *Session) Activations() []Activation {
	if s.loop == nil {
		return nil
	}
	return publicActivations(s.loop.Activations())
}

func countApprox(ms []join.RefMatch) int {
	n := 0
	for _, m := range ms {
		if !m.Exact {
			n++
		}
	}
	return n
}
