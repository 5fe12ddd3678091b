package join

import (
	"fmt"

	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/iterator"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/stream"
)

// Stats aggregates the engine's observable quantities. The adaptive
// monitor reads Matches (the observed result size O̅ₜ of §3.2) and Steps
// (the step counter t); the cost model of §4.3 consumes StepsInState and
// TransitionsInto.
type Stats struct {
	// Steps is the number of completed engine steps: one step reads one
	// tuple and joins it with every stored match (one quiescent-state
	// transition).
	Steps int
	// Read counts tuples consumed per side.
	Read [2]int
	// Matches is the number of result pairs computed so far.
	Matches int
	// ExactMatches counts key-equal pairs, ApproxMatches the rest.
	ExactMatches  int
	ApproxMatches int
	// StepsInState counts steps spent in each state, indexed by
	// State.Index() (the tᵢ of §4.3).
	StepsInState [4]int
	// TransitionsInto counts state-machine transitions into each state,
	// indexed by State.Index() (the trᵢ of §4.3). Self-transitions are
	// not switches and are not counted.
	TransitionsInto [4]int
	// Switches is the total number of state changes.
	Switches int
	// CatchUpTuples is the total number of tuple insertions performed by
	// switch-time index catch-ups (the switch overhead driver of §2.3).
	CatchUpTuples int
	// Evicted counts tuples evicted from the sliding window per side
	// (payload released, excluded from future probes).
	Evicted [2]int
	// IndexEntriesDropped counts index entries (exact refs plus q-gram
	// postings) physically removed by eviction compaction.
	IndexEntriesDropped int
}

// Engine is the hybrid switchable symmetric join operator. It implements
// iterator.Operator[Match].
//
// Construction: New. Drive with Open/Next/Close. Change state with
// SetState, either between Next calls or from within an OnStep hook.
type Engine struct {
	lc  iterator.Lifecycle
	cfg Config

	src  [2]stream.Source
	il   stream.Interleaver
	done [2]bool

	// Per-side tuple store: every tuple read is kept (both algorithms
	// retain scanned tuples; only index maintenance is lazy).
	store [2][]relation.Tuple
	keys  [2][]string
	// flags marks tuples that have matched exactly at least once — the
	// provenance bit of §3.3.
	flags [2][]bool

	exIdx [2]*hashidx.ExactIndex
	qgIdx [2]*hashidx.QGramIndex
	ex    *qgram.Extractor
	// dsc/psc are the engine's probe scratches: the engine is
	// single-threaded per instance, so one decomposition arena and one
	// epoch-stamped counting scratch serve every approximate probe with
	// zero per-probe allocations.
	dsc qgram.Scratch
	psc hashidx.ProbeScratch

	// minLive[s] is the oldest live (non-evicted) ref of side s under
	// sliding-window retention; 0 when RetainWindow is unset. Advanced
	// by EvictBelow — either from the engine's own RetainWindow logic or
	// by an external driver that owns the global scan order.
	minLive [2]int
	// compacted[s] is the floor up to which side s's index entries have
	// been physically dropped; compaction lags minLive and is amortised.
	compacted [2]int

	state   State
	pending []Match

	stats Stats

	// OnStep, if set, is invoked at every quiescent point — after a
	// tuple has been joined with all its matches and the step counter
	// advanced. The adaptive controller installs its MAR activation
	// here; calling SetState from the hook is safe by construction.
	OnStep func(e *Engine)
	// OnMatch, if set, is invoked for every match at computation time
	// (before delivery through Next). The controller's monitor uses it
	// to feed the per-side perturbation windows.
	OnMatch func(m Match)
}

// New builds an engine over the two sources. A nil interleaver defaults
// to the canonical alternating scan starting from the left input.
func New(cfg Config, left, right stream.Source, il stream.Interleaver) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if left == nil || right == nil {
		return nil, fmt.Errorf("join: nil source")
	}
	if il == nil {
		il = stream.NewRoundRobin(stream.Left)
	}
	ex := qgram.New(cfg.Q)
	e := &Engine{
		cfg:   cfg,
		src:   [2]stream.Source{left, right},
		il:    il,
		ex:    ex,
		state: cfg.Initial,
	}
	for s := 0; s < 2; s++ {
		e.exIdx[s] = hashidx.NewExactIndex()
		e.qgIdx[s] = hashidx.NewQGramIndex(ex)
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// State returns the current processor state.
func (e *Engine) State() State { return e.state }

// Step returns the number of completed steps (t in the paper).
func (e *Engine) Step() int { return e.stats.Steps }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Phase exposes the iterator lifecycle phase (used by iterator.Drain).
func (e *Engine) Phase() iterator.Phase { return e.lc.Phase() }

// Quiescent reports whether the engine holds no undelivered matches —
// the quiescent state of Fig. 2 at the delivery level. Note that
// SetState is safe even when undelivered matches are pending, because
// the engine materialises each probe's full match set before returning
// from the processing of its tuple; pending matches are never
// invalidated by an operator switch.
func (e *Engine) Quiescent() bool { return len(e.pending) == 0 }

// SpaceEstimate reports the index space drivers of §2.3's analysis: per
// side, the tuples stored (kept once regardless of operator), the exact
// index's entries (n pointers when up to date) and the q-gram index's
// posting entries (n·(|jA|+q−1) pointers when up to date). Lagging
// indexes report fewer entries, reflecting the lazy-maintenance saving.
type SpaceEstimate struct {
	Tuples       [2]int
	ExactEntries [2]int
	QGramEntries [2]int
}

// Space returns the current space estimate.
func (e *Engine) Space() SpaceEstimate {
	var s SpaceEstimate
	for _, side := range []stream.Side{stream.Left, stream.Right} {
		s.Tuples[side] = len(e.store[side])
		s.ExactEntries[side] = e.exIdx[side].Entries()
		s.QGramEntries[side] = e.qgIdx[side].Entries()
	}
	return s
}

// StoredTuple returns the i-th tuple stored for side.
func (e *Engine) StoredTuple(side stream.Side, i int) relation.Tuple {
	return e.store[side][i]
}

// MatchedFlag reports whether the i-th stored tuple of side has ever
// matched exactly.
func (e *Engine) MatchedFlag(side stream.Side, i int) bool { return e.flags[side][i] }

// LiveFloor returns the oldest live (non-evicted) ref of side: probes
// skip stored tuples below it. 0 when nothing has been evicted.
func (e *Engine) LiveFloor(side stream.Side) int { return e.minLive[side] }

// EvictBelow advances side's live floor to ref: stored tuples below the
// floor leave the match scope — every subsequent probe skips them — and
// their payloads are released. The floor is monotonic (a smaller ref is
// a no-op) and clamped to the store length. It returns the number of
// tuples newly evicted.
//
// This is the engine's evictor hook. On the sequential path the
// engine's own RetainWindow logic drives it, one call per arriving
// tuple; external drivers that own the global scan order — the
// partition-parallel executor, which translates global arrival
// sequence numbers into shard-local floors — drive it directly and
// leave Config.RetainWindow unset on the engine.
func (e *Engine) EvictBelow(side stream.Side, ref int) int {
	if ref > len(e.store[side]) {
		ref = len(e.store[side])
	}
	n := 0
	for e.minLive[side] < ref {
		e.store[side][e.minLive[side]].Attrs = nil
		e.minLive[side]++
		n++
	}
	e.stats.Evicted[side] += n
	return n
}

// CompactEvicted physically drops the index entries of evicted tuples
// on both sides — exact refs and q-gram postings below the live floors
// — returning the number of entries removed. Compaction never changes
// the match set (probes already skip evicted refs); it reclaims the
// memory the floor made dead. The sequential engine calls it from its
// RetainWindow logic once a window's worth of tuples is dead, and each
// shard of the partition-parallel executor does the same for its own
// slice: a tuple is stored in one shard only, so no other shard has to
// agree on when its entries go.
func (e *Engine) CompactEvicted() int {
	dropped := 0
	for _, side := range []stream.Side{stream.Left, stream.Right} {
		fl := e.minLive[side]
		if fl == e.compacted[side] {
			continue
		}
		dropped += e.exIdx[side].EvictBelow(fl)
		dropped += e.qgIdx[side].EvictBelow(fl)
		e.compacted[side] = fl
	}
	e.stats.IndexEntriesDropped += dropped
	return dropped
}

// Open implements iterator.Operator.
func (e *Engine) Open() error { return e.lc.CheckOpen() }

// Close implements iterator.Operator.
func (e *Engine) Close() error { return e.lc.CheckClose() }

// Next implements iterator.Operator. It returns the next match of the
// symmetric scan, reading and processing as many input tuples as needed
// to produce one, and ok=false once both inputs are exhausted and all
// matches have been delivered.
func (e *Engine) Next() (Match, bool, error) {
	if err := e.lc.CheckNext(); err != nil {
		return Match{}, false, err
	}
	for {
		if len(e.pending) > 0 {
			m := e.pending[0]
			e.pending = e.pending[1:]
			return m, true, nil
		}
		if e.done[stream.Left] && e.done[stream.Right] {
			e.lc.MarkExhausted()
			return Match{}, false, nil
		}
		side := e.il.Pick(e.done[stream.Left], e.done[stream.Right])
		t, ok, err := e.src[side].Next()
		if err != nil {
			return Match{}, false, fmt.Errorf("join: reading %v input: %w", side, err)
		}
		if !ok {
			e.done[side] = true
			continue
		}
		e.processTuple(side, t)
	}
}

// Push processes one tuple from the given side as one full engine step,
// bypassing the engine's own sources. It is the push-mode complement to
// Next for drivers that own the scan order themselves (the partition-
// parallel executor feeds each shard engine from a channel this way).
// Matches computed by the step accumulate until TakePending or Next
// collects them. The engine must be open and not exhausted.
func (e *Engine) Push(side stream.Side, t relation.Tuple) error {
	if err := e.lc.CheckNext(); err != nil {
		return err
	}
	e.processTuple(side, t)
	return nil
}

// ProbeOnly joins a tuple key of side with every stored match of the
// opposite side under side's current mode, without storing or indexing
// it: the probing tuple's ref in the resulting matches is -1. It is not
// an engine step — no step counter moves and OnStep does not fire. The
// partition-parallel executor offers an approximately probing tuple to
// the shards that are not its home this way, so each of them answers
// from its own disjoint slice of the opposite input. The engine must be
// open and not exhausted.
func (e *Engine) ProbeOnly(side stream.Side, key string) error {
	if err := e.lc.CheckNext(); err != nil {
		return err
	}
	e.probe(side, -1, key)
	return nil
}

// TakePending returns the matches computed but not yet delivered and
// clears the pending queue. Push-mode drivers call it after every Push
// or ProbeOnly; pull-mode callers never need it because Next drains the
// same queue.
func (e *Engine) TakePending() []Match {
	if len(e.pending) == 0 {
		return nil
	}
	out := e.pending
	e.pending = nil
	return out
}

// processTuple runs one full step: store the tuple, insert it into its
// side's active index, probe the opposite side under the reading side's
// mode, and fire the step hook at the resulting quiescent point.
func (e *Engine) processTuple(side stream.Side, t relation.Tuple) {
	ref := len(e.store[side])
	e.store[side] = append(e.store[side], t)
	e.keys[side] = append(e.keys[side], t.Key)
	e.flags[side] = append(e.flags[side], false)
	e.stats.Read[side]++
	if w := e.cfg.RetainWindow; w > 0 {
		// Evict everything older than the most recent w arrivals of this
		// side: payloads released, probes skip the evicted refs.
		e.EvictBelow(side, len(e.store[side])-w)
		if e.minLive[side]-e.compacted[side] >= w {
			// Amortised index compaction: at most one full window of dead
			// entries per side, so index memory is bounded by ~2w entries
			// instead of growing with stream length.
			e.CompactEvicted()
		}
	}

	// Operation 2 of §2.2: insert into the index the opposite side's
	// probes use; the other index lags until a switch catches it up.
	switch e.state.Mode(side.Other()) {
	case Exact:
		e.exIdx[side].Insert(ref, t.Key)
	case Approx:
		e.qgIdx[side].Insert(ref, t.Key)
	}

	e.probe(side, ref, t.Key)

	e.stats.Steps++
	e.stats.StepsInState[e.state.Index()]++
	if e.OnStep != nil {
		e.OnStep(e)
	}
}

// probe matches a tuple of side against the opposite side under side's
// current mode. ref is the tuple's store position, or -1 for a probe-only
// tuple that is not stored here.
func (e *Engine) probe(side stream.Side, ref int, key string) {
	switch e.state.Mode(side) {
	case Exact:
		e.probeExact(side, ref, key)
	case Approx:
		e.probeApprox(side, ref, key)
	}
}

// flagExact sets the §3.3 provenance bit on both tuples of a key-equal
// pair; a probe-only tuple (ref -1) has no flag here.
func (e *Engine) flagExact(side stream.Side, ref int, other stream.Side, oref int) {
	if ref >= 0 {
		e.flags[side][ref] = true
	}
	e.flags[other][oref] = true
}

// probeExact matches the new tuple against the opposite exact index.
func (e *Engine) probeExact(side stream.Side, ref int, key string) {
	other := side.Other()
	for _, oref := range e.exIdx[other].Lookup(key) {
		if oref < e.minLive[other] {
			continue // evicted from the stream window
		}
		e.flagExact(side, ref, other, oref)
		e.emit(side, ref, key, other, oref, 1, true)
	}
}

// probeApprox matches the new tuple against the opposite q-gram index:
// candidate generation with the count bound of §2.2, then similarity
// verification against θsim.
func (e *Engine) probeApprox(side stream.Side, ref int, key string) {
	other := side.Other()
	e.dsc.Reset()
	pk := e.ex.Decompose(&e.dsc, key)
	g := pk.Len()
	k := e.cfg.Measure.MinOverlap(g, e.cfg.Theta)
	for _, cand := range e.qgIdx[other].ProbeKey(pk, k, &e.psc) {
		if cand.Ref < e.minLive[other] {
			continue // evicted from the stream window
		}
		sim, ok := e.cfg.Measure.Verify(g, e.qgIdx[other].GramSize(cand.Ref), cand.Overlap, e.cfg.Theta)
		exact := e.keys[other][cand.Ref] == key
		if exact {
			// The approximate operator found the pair an exact probe
			// would have: full evidence, flag both tuples.
			sim = 1
			e.flagExact(side, ref, other, cand.Ref)
		} else if !ok {
			continue
		}
		e.emit(side, ref, key, other, cand.Ref, sim, exact)
	}
}

// emit records a match between the probing tuple (side, ref, key) and
// the stored tuple (other, oref), assigning variant attribution per §3.3.
func (e *Engine) emit(side stream.Side, ref int, key string, other stream.Side, oref int, sim float64, exact bool) {
	attr := AttrNone
	if !exact {
		if e.flags[other][oref] {
			// The stored tuple matched exactly before, so it has a
			// faithful counterpart; the probing tuple is the variant.
			if side == stream.Left {
				attr = AttrLeft
			} else {
				attr = AttrRight
			}
		} else {
			attr = AttrBoth
		}
	}
	m := Match{
		ProbeSide:   side,
		ProbeMode:   e.state.Mode(side),
		Similarity:  sim,
		Exact:       exact,
		Attribution: attr,
		Step:        e.stats.Steps, // step in progress; counter increments after the probe
	}
	if side == stream.Left {
		m.LeftRef, m.RightRef = ref, oref
		m.LeftKey, m.RightKey = key, e.keys[stream.Right][oref]
	} else {
		m.LeftRef, m.RightRef = oref, ref
		m.LeftKey, m.RightKey = e.keys[stream.Left][oref], key
	}
	e.stats.Matches++
	if exact {
		e.stats.ExactMatches++
	} else {
		e.stats.ApproxMatches++
	}
	if e.OnMatch != nil {
		e.OnMatch(m)
	}
	e.pending = append(e.pending, m)
}

// SetState transitions the processor to the target state, performing the
// lazy index catch-up of §2.3 for every index that becomes active. It
// returns the number of tuples caught up. Transitioning to the current
// state is a no-op self-loop (no switch, no cost).
//
// The call is safe at any quiescent point; the adaptive responder
// invokes it from the OnStep hook.
func (e *Engine) SetState(target State) (caughtUp int, err error) {
	if err := target.validate(); err != nil {
		return 0, err
	}
	if target == e.state {
		return 0, nil
	}
	// mode[s] determines which index kind on other(s) its probes read;
	// catch that index up when the mode changes.
	for _, s := range []stream.Side{stream.Left, stream.Right} {
		oldMode, newMode := e.state.Mode(s), target.Mode(s)
		if oldMode == newMode {
			continue
		}
		other := s.Other()
		switch newMode {
		case Exact:
			caughtUp += e.exIdx[other].CatchUp(e.keys[other])
		case Approx:
			caughtUp += e.qgIdx[other].CatchUp(e.keys[other])
		}
	}
	e.state = target
	e.stats.Switches++
	e.stats.TransitionsInto[target.Index()]++
	e.stats.CatchUpTuples += caughtUp
	return caughtUp, nil
}

func (s State) validate() error {
	switch s {
	case LexRex, LapRex, LexRap, LapRap:
		return nil
	default:
		return fmt.Errorf("join: invalid state %+v", s)
	}
}
