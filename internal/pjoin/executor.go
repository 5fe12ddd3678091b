// Package pjoin executes the switchable symmetric join of package join
// partition-parallel: both inputs are hash-partitioned into P shards by
// join key, each shard runs an independent Engine on its own goroutine,
// and the per-shard match streams are merged through a bounded fan-in
// channel. Operator switches remain per-shard quiescent-point
// transitions, so every shard preserves the sequential engine's
// switching semantics; the aggregate control loop lives in
// adaptive.ShardedController and talks to the executor through the
// Controller interface.
//
// Placement is the one rule the sharded resident index
// (join.ShardedRefIndex) and the cluster tier use: a tuple is stored in
// exactly its home shard shardmap.ShardOf(key, P). An exact probe runs
// there only, because equal keys share a home; an approximate probe is
// offered to every shard — the home shard stores and probes, the others
// probe their disjoint 1/P slice of the opposite input without storing.
// Every pair is therefore found in exactly one shard, and all §3.3
// matched-flags of a key live in one shard, so attribution is the
// sequential engine's.
package pjoin

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adaptivelink/internal/iterator"
	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/shardmap"
	"adaptivelink/internal/stream"
)

// Controller is the aggregate adaptivity hook the executor reports to.
// adaptive.ShardedController implements it; a nil Controller runs the
// shards at their configured initial state for the whole join.
//
// The executor and controller share a barrier-punctuation protocol that
// makes the aggregate observations causally consistent with the
// dispatch clock, exactly like a sequential engine's activation at step
// t sees every match of the first t tuples: when NoteDispatch returns
// true the splitter broadcasts a barrier mark to every shard behind the
// tuples dispatched so far; each shard echoes the mark after processing
// everything before it, then blocks until the barrier completes; and
// once the merger has collected the mark from every shard it calls
// Activate, at which point the controller has seen exactly the matches
// produced by the dispatches up to the barrier.
type Controller interface {
	// NoteDispatch observes one input tuple leaving the splitter for
	// side. It is the global step clock: dispatch order defines the
	// aggregate scan position exactly as a sequential engine's step
	// counter does. A true return asks the splitter to emit a barrier
	// mark behind this tuple.
	NoteDispatch(side stream.Side) (barrier bool)
	// NoteMatch observes one result pair, in barrier-consistent order.
	// step is the probing tuple's global dispatch position (1-based) —
	// the step a sequential engine would have found the pair at — so the
	// controller can attribute the match to its exact position on the
	// dispatch clock even though merge order within a barrier interval is
	// nondeterministic.
	NoteMatch(step int, exact bool, attr join.Attribution)
	// Activate fires when a barrier has been echoed by every shard: the
	// controller's counters now describe a consistent cut of the join.
	Activate()
	// Sync is called by shard workers between tuples — at a per-shard
	// quiescent point — so pending aggregate mode switches can be
	// applied via e.SetState.
	Sync(shard int, e *join.Engine)
}

// Config parameterises an Executor.
type Config struct {
	// Join is the per-shard engine configuration.
	Join join.Config
	// Shards is the partition count P (≥ 1).
	Shards int
	// Controller, when non-nil, receives aggregate observations and
	// broadcasts mode switches (see adaptive.ShardedController).
	Controller Controller
	// buffer is the capacity of each inter-goroutine channel (default
	// 256). Only this package's tests shrink it, to force interleavings.
	buffer int
}

// Match is one result pair of the parallel join. Refs are global
// per-side arrival sequence numbers assigned by the splitter, so they
// identify tuples independently of shard-local storage.
type Match struct {
	// Left and Right are the matched tuples.
	Left, Right relation.Tuple
	// LeftSeq and RightSeq are the tuples' global arrival positions on
	// their sides.
	LeftSeq, RightSeq int
	// Similarity, Exact, ProbeSide, ProbeMode and Attribution carry the
	// shard engine's verdict, identical to the sequential join.Match.
	Similarity  float64
	Exact       bool
	ProbeSide   stream.Side
	ProbeMode   join.Mode
	Attribution join.Attribution
	// Shard is the index of the shard that computed the pair.
	Shard int
	// Step is the computing shard's local step count at probe time.
	Step int
	// DispatchStep is the probing tuple's global dispatch position
	// (1-based): the step at which a sequential engine scanning in the
	// same order would have probed this pair.
	DispatchStep int
}

// Stats aggregates the executor's counters: the engine accounting summed
// over the shard engines, plus what only the executor can count. A shard
// engine steps once per tuple it stores, and a tuple is stored in its
// home shard only, so once the join is drained the embedded counters add
// up to the sequential engine's: Steps = Read[0] + Read[1] at every P.
// Probe-only offers to the other shards are not steps; they are counted
// separately in ProbeOffers.
type Stats struct {
	// Stats sums the shard engines' counters, except that Read and the
	// match counters are counted once, by the splitter and the merger.
	// Each shard applies every broadcast switch, so Switches and
	// TransitionsInto count P per aggregate switch, while CatchUpTuples
	// — each shard re-indexes its own slice — matches the sequential
	// engine's.
	join.Stats
	// Shards is the partition count.
	Shards int
	// Routed counts the tuples the shards stored per side. Stored copies
	// per input tuple is Routed/Read, which placement pins at 1.
	Routed [2]int
	// ProbeOffers counts the probe-only steps shards ran for tuples homed
	// elsewhere: P-1 per approximately probing tuple, none per exactly
	// probing one.
	ProbeOffers int
	// ExactEntries and QGramEntries sum the shard engines' live index
	// entries per side (join.SpaceEstimate): the same totals a sequential
	// engine holds, since every tuple is indexed in one shard.
	ExactEntries [2]int
	QGramEntries [2]int
}

type routed struct {
	side stream.Side
	// seq is the tuple's global arrival position on its side; opp is the
	// opposite side's dispatch count at dispatch time and gstep the
	// global dispatch position over both sides (1-based). Together they
	// let a shard reconstruct the sequential engine's scan clock: the
	// sliding-window floor a sequential probe would apply at this step
	// is seq+1-w on the tuple's own side and opp-w on the opposite side.
	seq, opp, gstep int
	t               relation.Tuple
	home            int  // the shard that stores t: shardmap.ShardOf(t.Key, P)
	mark            bool // barrier mark: no tuple, echo to the merger
}

// stamper assigns the splitter's global dispatch stamps. It is the
// serial heart of the scan-order contract and is kept separate from
// split() so tests and fuzzers can drive the exact production stamping
// logic without goroutines.
type stamper struct {
	seq   [2]int
	gstep int
}

func (s *stamper) stamp(side stream.Side, t relation.Tuple) routed {
	s.gstep++
	rt := routed{side: side, seq: s.seq[side], opp: s.seq[side.Other()], gstep: s.gstep, t: t}
	s.seq[side]++
	return rt
}

// rawItem is what shard workers hand to the merger: a match or a barrier
// mark echo.
type rawItem struct {
	m     Match
	mark  bool
	shard int
}

// shardReport is what a shard worker leaves behind when it exits.
type shardReport struct {
	stats  join.Stats
	space  join.SpaceEstimate
	offers int // probe-only steps run for tuples homed elsewhere
}

// Executor is the partition-parallel join operator. Construct with New,
// then drive like any iterator: Open, Next until ok=false, Close. Next
// must be called from a single goroutine; Open spawns the splitter, the
// shard workers and the merger.
type Executor struct {
	cfg Config
	src [2]stream.Source
	il  stream.Interleaver
	// homeOnly: no shard can ever probe approximately (no controller,
	// initial state lex/rex), so a tuple is dispatched to its home shard
	// alone instead of being offered to all of them.
	homeOnly bool

	lc       iterator.Lifecycle
	in       []chan routed
	raw      chan rawItem
	out      chan Match
	quit     chan struct{}
	quitOnce sync.Once

	// Barrier rendezvous: after echoing mark k a worker blocks until
	// the merger has completed barrier k (and the controller has
	// broadcast any switch), so every tuple of interval k+1 is
	// processed under the state decided at barrier k in every shard —
	// the same switch placement a sequential engine gets from
	// activating at step k·δadapt.
	barMu    sync.Mutex
	barCond  *sync.Cond
	released int
	stopped  bool

	bg      sync.WaitGroup // splitter + merger + closer
	workers sync.WaitGroup

	mu       sync.Mutex
	firstErr error
	shards   []shardReport

	read    [2]atomic.Int64
	matches atomic.Int64
	exact   atomic.Int64
	approx  atomic.Int64
}

// New builds a partition-parallel executor over the two sources. A nil
// interleaver in spirit: the splitter always uses the canonical
// alternating scan starting from the left input, matching the
// sequential engine's default and the paper's result-size model.
func New(cfg Config, left, right stream.Source) (*Executor, error) {
	if err := cfg.Join.Validate(); err != nil {
		return nil, err
	}
	if left == nil || right == nil {
		return nil, fmt.Errorf("pjoin: nil source")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("pjoin: shard count %d < 1", cfg.Shards)
	}
	if cfg.buffer <= 0 {
		cfg.buffer = 256
	}
	e := &Executor{
		cfg:      cfg,
		src:      [2]stream.Source{left, right},
		il:       stream.NewRoundRobin(stream.Left),
		homeOnly: cfg.Controller == nil && cfg.Join.Initial == join.LexRex,
		shards:   make([]shardReport, cfg.Shards),
	}
	e.barCond = sync.NewCond(&e.barMu)
	return e, nil
}

// Open implements iterator.Operator: it validates the lifecycle and
// starts the pipeline goroutines.
func (e *Executor) Open() error {
	if err := e.lc.CheckOpen(); err != nil {
		return err
	}
	e.quit = make(chan struct{})
	e.in = make([]chan routed, e.cfg.Shards)
	for i := range e.in {
		e.in[i] = make(chan routed, e.cfg.buffer)
	}
	e.raw = make(chan rawItem, e.cfg.buffer)
	e.out = make(chan Match, e.cfg.buffer)

	e.workers.Add(e.cfg.Shards)
	for i := 0; i < e.cfg.Shards; i++ {
		go e.work(i)
	}
	e.bg.Add(3)
	go e.split()
	go func() { // closer: workers drained their inputs → no more raw matches
		defer e.bg.Done()
		e.workers.Wait()
		close(e.raw)
	}()
	go e.merge()
	return nil
}

// Next implements iterator.Operator. Matches arrive in shard completion
// order, which is nondeterministic; the match *set* is deterministic for
// fixed inputs and states.
func (e *Executor) Next() (Match, bool, error) {
	if err := e.lc.CheckNext(); err != nil {
		return Match{}, false, err
	}
	m, ok := <-e.out
	if !ok {
		e.lc.MarkExhausted()
		if err := e.err(); err != nil {
			return Match{}, false, err
		}
		return Match{}, false, nil
	}
	return m, true, nil
}

// Close implements iterator.Operator: it cancels the pipeline, waits for
// every goroutine and reports the first error the run hit.
func (e *Executor) Close() error {
	if err := e.lc.CheckClose(); err != nil {
		return err
	}
	if e.quit == nil {
		return nil // never opened
	}
	e.stop()
	e.workers.Wait()
	e.bg.Wait()
	return e.err()
}

// Stats returns the executor's aggregate counters. It is fully
// consistent once Next has returned ok=false (or after Close); mid-run
// it returns a best-effort snapshot in which the per-shard engine sums
// cover only finished shards.
func (e *Executor) Stats() Stats {
	s := Stats{Shards: e.cfg.Shards}
	e.mu.Lock()
	for _, sh := range e.shards {
		st := sh.stats
		s.ProbeOffers += sh.offers
		s.Steps += st.Steps
		s.Switches += st.Switches
		s.CatchUpTuples += st.CatchUpTuples
		for i := 0; i < 4; i++ {
			s.StepsInState[i] += st.StepsInState[i]
			s.TransitionsInto[i] += st.TransitionsInto[i]
		}
		s.IndexEntriesDropped += st.IndexEntriesDropped
		for side := 0; side < 2; side++ {
			s.Routed[side] += st.Read[side]
			s.Evicted[side] += st.Evicted[side]
			s.ExactEntries[side] += sh.space.ExactEntries[side]
			s.QGramEntries[side] += sh.space.QGramEntries[side]
		}
	}
	e.mu.Unlock()
	s.Read = [2]int{int(e.read[0].Load()), int(e.read[1].Load())}
	s.Matches = int(e.matches.Load())
	s.ExactMatches = int(e.exact.Load())
	s.ApproxMatches = int(e.approx.Load())
	return s
}

// stop cancels the pipeline; safe to call repeatedly.
func (e *Executor) stop() {
	e.quitOnce.Do(func() {
		close(e.quit)
		e.barMu.Lock()
		e.stopped = true
		e.barCond.Broadcast()
		e.barMu.Unlock()
	})
}

// releaseBarrier lets workers waiting on barrier k (and earlier) resume.
func (e *Executor) releaseBarrier(k int) {
	e.barMu.Lock()
	e.released = k
	e.barCond.Broadcast()
	e.barMu.Unlock()
}

// awaitBarrier blocks the calling worker until barrier k has been
// released (or the pipeline is cancelled).
func (e *Executor) awaitBarrier(k int) {
	e.barMu.Lock()
	for e.released < k && !e.stopped {
		e.barCond.Wait()
	}
	e.barMu.Unlock()
}

// setErr records the first error; later ones are dropped.
func (e *Executor) setErr(err error) {
	e.mu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
}

// fail records an error and cancels the pipeline, so the consumer's
// Next unblocks and reports it.
func (e *Executor) fail(err error) {
	e.setErr(err)
	e.stop()
}

func (e *Executor) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstErr
}

// send queues rt on shard s's FIFO; false means the pipeline was
// cancelled.
func (e *Executor) send(s int, rt routed) bool {
	select {
	case e.in[s] <- rt:
		return true
	case <-e.quit:
		return false
	}
}

// broadcast queues rt on every shard's FIFO.
func (e *Executor) broadcast(rt routed) bool {
	for s := range e.in {
		if !e.send(s, rt) {
			return false
		}
	}
	return true
}

// split is the single reader of both sources: it assigns global
// sequence stamps (per-side arrival position, opposite-side progress,
// global dispatch position), feeds the aggregate step clock, and hands
// each tuple to its home shard — and, unless the join can never probe
// approximately, to every other shard as a probe-only offer.
func (e *Executor) split() {
	defer e.bg.Done()
	defer func() {
		for _, ch := range e.in {
			close(ch)
		}
	}()
	var done [2]bool
	var st stamper
	for {
		if done[stream.Left] && done[stream.Right] {
			return
		}
		side := e.il.Pick(done[stream.Left], done[stream.Right])
		t, ok, err := e.src[side].Next()
		if err != nil {
			e.fail(fmt.Errorf("pjoin: reading %v input: %w", side, err))
			return
		}
		if !ok {
			done[side] = true
			continue
		}
		rt := st.stamp(side, t)
		rt.home = shardmap.ShardOf(t.Key, e.cfg.Shards)
		e.read[side].Add(1)
		barrier := false
		if e.cfg.Controller != nil {
			barrier = e.cfg.Controller.NoteDispatch(side)
		}
		var sent bool
		if e.homeOnly {
			sent = e.send(rt.home, rt)
		} else {
			sent = e.broadcast(rt)
		}
		if !sent {
			return
		}
		// The mark trails every tuple dispatched so far on every shard's
		// FIFO queue.
		if barrier && !e.broadcast(routed{mark: true}) {
			return
		}
	}
}

// work drives one shard: a private engine fed in dispatch order, with a
// quiescent-point controller sync before every tuple. The tuples homed
// here are stored and probed (one engine step each); a tuple homed
// elsewhere is dropped untouched when its side probes exactly — equal
// keys share a home, so it cannot match here — and otherwise probed
// against this shard's slice of the opposite input without being stored.
//
// Sliding-window retention is driven from here, not from the shard
// engine's own RetainWindow logic (which would count shard-local
// arrivals): the splitter's stamps carry the global scan clock, so
// before each probe the worker translates the exact global floors a
// sequential engine would apply at this dispatch — seq+1-w on the
// tuple's own side, opp-w on the opposite side — into shard-local refs
// and advances the engine's live floors. Probe-time filtering is
// therefore globally exact at every step. Physical compaction is the
// shard's own business, as in the sequential engine: once a window's
// worth of its tuples is dead, it drops their index entries.
func (e *Executor) work(i int) {
	defer e.workers.Done()
	// The shard engine must not run its own shard-local window logic;
	// the worker owns eviction against the global clock.
	cfg := e.cfg.Join
	w := cfg.RetainWindow
	cfg.RetainWindow = 0
	eng, err := join.New(cfg, emptySource{}, emptySource{}, nil)
	if err != nil {
		e.fail(fmt.Errorf("pjoin: shard %d: %w", i, err))
		return
	}
	if err := eng.Open(); err != nil {
		e.fail(fmt.Errorf("pjoin: shard %d: %w", i, err))
		return
	}
	offers := 0
	// Record the shard's accounting on every exit path — cancellation
	// included — so Stats() keeps its after-Close consistency promise.
	defer func() {
		eng.Close()
		e.mu.Lock()
		e.shards[i] = shardReport{stats: eng.Stats(), space: eng.Space(), offers: offers}
		e.mu.Unlock()
	}()
	var seqs [2][]int // shard-local ref -> global sequence number
	var floor [2]int  // shard-local ref floor mirroring the global window
	dead := 0         // tuples evicted since the last compaction
	// evictTo advances side's floor to the first local ref whose global
	// sequence number is inside the window [gf, ...). seqs are strictly
	// increasing (dispatch order), so the floor only moves forward.
	evictTo := func(side stream.Side, gf int) {
		if gf <= 0 {
			return
		}
		for floor[side] < len(seqs[side]) && seqs[side][floor[side]] < gf {
			floor[side]++
		}
		dead += eng.EvictBelow(side, floor[side])
	}
	myMarks := 0
	for rt := range e.in[i] {
		if rt.mark {
			myMarks++
			select {
			case e.raw <- rawItem{mark: true, shard: i}:
			case <-e.quit:
				return
			}
			e.awaitBarrier(myMarks)
			continue
		}
		if e.cfg.Controller != nil {
			e.cfg.Controller.Sync(i, eng)
		}
		home := rt.home == i
		if !home && eng.State().Mode(rt.side) == join.Exact {
			continue
		}
		if w > 0 {
			evictTo(rt.side, rt.seq+1-w)
			evictTo(rt.side.Other(), rt.opp-w)
			if dead >= w {
				eng.CompactEvicted()
				dead = 0
			}
		}
		if home {
			seqs[rt.side] = append(seqs[rt.side], rt.seq)
			err = eng.Push(rt.side, rt.t)
		} else {
			offers++
			err = eng.ProbeOnly(rt.side, rt.t.Key)
		}
		if err != nil {
			e.fail(fmt.Errorf("pjoin: shard %d: %w", i, err))
			return
		}
		// The probing tuple is rt itself (not stored here on a probe-only
		// offer); its partner is in this shard's store.
		other := rt.side.Other()
		var tup [2]relation.Tuple
		var seq [2]int
		tup[rt.side], seq[rt.side] = rt.t, rt.seq
		for _, m := range eng.TakePending() {
			oref := [2]int{m.LeftRef, m.RightRef}[other]
			tup[other], seq[other] = eng.StoredTuple(other, oref), seqs[other][oref]
			pm := Match{
				Left:         tup[stream.Left],
				Right:        tup[stream.Right],
				LeftSeq:      seq[stream.Left],
				RightSeq:     seq[stream.Right],
				Similarity:   m.Similarity,
				Exact:        m.Exact,
				ProbeSide:    m.ProbeSide,
				ProbeMode:    m.ProbeMode,
				Attribution:  m.Attribution,
				Shard:        i,
				Step:         m.Step,
				DispatchStep: rt.gstep,
			}
			select {
			case e.raw <- rawItem{m: pm, shard: i}:
			case <-e.quit:
				return
			}
		}
	}
}

// merge fans the shard streams into one and completes barriers. Every
// pair is found in exactly one shard, so there is nothing to deduplicate.
// Barrier consistency needs no buffering here: a worker that has echoed
// mark k blocks in awaitBarrier until the merger has collected every
// shard's echo and run Activate, so by construction no post-barrier
// match can reach the merger before the barrier's activation — Activate
// always observes exactly the matches produced by the dispatches up to
// the barrier.
func (e *Executor) merge() {
	defer e.bg.Done()
	defer close(e.out)
	marks := make([]int, e.cfg.Shards)
	completed := 0

	deliver := func(m Match) bool {
		e.matches.Add(1)
		if m.Exact {
			e.exact.Add(1)
		} else {
			e.approx.Add(1)
		}
		if e.cfg.Controller != nil {
			e.cfg.Controller.NoteMatch(m.DispatchStep, m.Exact, m.Attribution)
		}
		select {
		case e.out <- m:
			return true
		case <-e.quit:
			return false
		}
	}
	barrierDone := func() bool {
		for _, m := range marks {
			if m <= completed {
				return false
			}
		}
		return true
	}

	for it := range e.raw {
		if it.mark {
			marks[it.shard]++
			if barrierDone() {
				completed++
				if e.cfg.Controller != nil {
					e.cfg.Controller.Activate()
				}
				e.releaseBarrier(completed)
			}
			continue
		}
		if !deliver(it.m) {
			return
		}
	}
}

// emptySource satisfies stream.Source for push-mode shard engines, which
// never pull from their sources.
type emptySource struct{}

func (emptySource) Next() (relation.Tuple, bool, error) { return relation.Tuple{}, false, nil }
