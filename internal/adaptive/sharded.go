package adaptive

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/stream"
)

// ShardedController runs one MAR control loop over a partition-parallel
// join (internal/pjoin): the per-shard Monitor observations are
// aggregated into a single binomial deficit test — the same statistics
// as the sequential Controller, over summed counts — and the responder's
// mode switches are broadcast to every shard, each of which applies them
// at its next quiescent point.
//
// The aggregate observation is exactly the sequential one because it is
// taken at executor barriers: every δadapt dispatched tuples the
// controller snapshots the dispatch clock and asks the splitter to emit
// a barrier mark; when the merger has collected the mark's echo from
// every shard it calls Activate, at which point the match count covers
// exactly the tuples of the snapshot — the same consistent
// cut a sequential engine sees at an activation. The binomial model of
// §3.2 therefore transfers unchanged: after n dispatched child tuples
// the expected result size is still n·p(n) with p(n) = parentSeen/|R|.
// The perturbation windows are exact too: each merged match carries its
// probing tuple's global dispatch step, and Activate replays the
// interval's matches onto the sliding windows in dispatch order at the
// positions a sequential controller would have recorded them, so
// A_{t,W} is identical at every activation for any W and δadapt.
//
// Switching is eventually consistent across shards: a broadcast switch
// reaches shard i when its worker next calls Sync, i.e. at that shard's
// next quiescent point. The executor's barrier rendezvous holds every
// shard at the barrier until the switch is broadcast, so all tuples of
// the next interval are processed under the state decided at the
// barrier — the same switch placement a sequential engine gets from
// activating at step k·δadapt.
//
// The cost budget (EnableCostBudget) is enforced against a modelled
// global spend counter maintained on the same broadcast timeline: at
// each barrier the interval's dispatches accrue at the broadcast
// state's step weight, and each broadcast switch accrues its transition
// weight. Because the barrier rendezvous pins every interval to one
// state, this spend equals the modelled cost of the sequential engine's
// own accounting at the same logical step — the budget trips at the
// same activation it would sequentially. (The executor's shard engines
// run the same steps — a tuple steps in its home shard only — but each
// pays its own transition per broadcast switch; the budget is a
// statement about the logical scan.)
// Futility reverts, the calibrated estimator and the trace are the
// shared activation body's (loop), so they behave as sequentially.
type ShardedController struct {
	// gen is the broadcast generation, incremented on every aggregate
	// switch decision; shard workers compare it against their applied
	// generation lock-free on the hot path.
	gen atomic.Uint64

	// mu guards everything below once the join runs, the embedded loop
	// state included.
	mu sync.Mutex
	batchLoop
	state         join.State      // current broadcast target
	steps         int             // global step clock: tuples dispatched
	read          [2]int          // tuples dispatched per side
	observed      int             // matches up to the last barrier
	pendingEvents map[int]*[2]int // dispatch step -> per-side window events since the last barrier
	lastBarrier   int             // dispatch step of the last emitted barrier
	barriers      []barrierSnap   // emitted but not yet completed barriers

	// seqModel is the logical (sequential-equivalent) execution the
	// spend is priced from — interval steps accrued in the broadcast
	// state plus broadcast transitions, through the last completed
	// barrier (seqModel.Steps).
	seqModel join.Stats

	// applied[i] is the generation shard i has applied; only shard i's
	// worker touches it (from Sync), so no lock is needed.
	applied []uint64
}

// barrierSnap is the dispatch-clock snapshot taken when a barrier is
// emitted; Activate consumes them in FIFO order.
type barrierSnap struct {
	step int
	read [2]int
}

// NewSharded builds a controller aggregating the given number of shards.
// parentSide and parentSize have the same meaning as in Attach. Wire the
// result into pjoin.Config.Controller before opening the executor. The
// loop starts from the paper's optimistic lex/rex and every shard is
// snapped to the controller's state at its first quiescent point, so a
// divergent Config.Initial on the shard engines cannot outlive the
// first tuple. Call EnableTrace/EnableCostBudget before the join starts.
func NewSharded(shards int, parentSide stream.Side, parentSize int, p Params) (*ShardedController, error) {
	b, err := newBatchLoop(parentSide, parentSize, p)
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		return nil, fmt.Errorf("adaptive: shard count %d < 1", shards)
	}
	c := &ShardedController{
		batchLoop:     b,
		state:         join.LexRex,
		pendingEvents: make(map[int]*[2]int),
		applied:       make([]uint64, shards),
	}
	// Sentinel: every shard's first Sync takes the slow path and snaps
	// the engine to the controller's state, so a shard configured with
	// a different initial state cannot silently diverge from the state
	// the aggregate loop assesses from (the paper's optimistic lex/rex).
	for i := range c.applied {
		c.applied[i] = ^uint64(0)
	}
	return c, nil
}

// State returns the current broadcast target state. Individual shards
// converge to it at their next quiescent points.
func (c *ShardedController) State() join.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Spend returns the modelled sequential-equivalent cost accrued up to
// the last completed barrier — the global spend counter a cost budget
// is enforced against, and the Spend of the last recorded activation.
// Without EnableCostBudget it is priced under the paper's weights.
func (c *ShardedController) Spend() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return metrics.Cost(c.seqModel, c.weights).Total
}

// Activations returns the recorded trace (nil unless EnableTrace was
// called), under the controller's lock: the merger appends to it while
// the join runs.
func (c *ShardedController) Activations() []Activation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trace
}

// NoteDispatch implements pjoin.Controller: it advances the global step
// clock and, every DeltaAdapt dispatches, snapshots it and requests a
// barrier.
func (c *ShardedController) NoteDispatch(side stream.Side) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.read[side]++
	c.steps++
	if c.steps-c.lastBarrier < c.params.DeltaAdapt {
		return false
	}
	c.lastBarrier = c.steps
	c.barriers = append(c.barriers, barrierSnap{step: c.steps, read: c.read})
	return true
}

// NoteMatch implements pjoin.Controller: it feeds the aggregate result
// size and, for non-exact matches, buffers the per-side perturbation
// events keyed by the probe's global dispatch step. The merger calls it
// in barrier-consistent order, so by the time Activate fires the
// counters cover exactly the barrier's dispatches.
func (c *ShardedController) NoteMatch(step int, exact bool, attr join.Attribution) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observed++
	if exact {
		return
	}
	c.approxSeen++
	ev := c.pendingEvents[step]
	if ev == nil {
		ev = new([2]int)
		c.pendingEvents[step] = ev
	}
	if attr.Blames(stream.Left) {
		ev[stream.Left]++
	}
	if attr.Blames(stream.Right) {
		ev[stream.Right]++
	}
}

// Activate implements pjoin.Controller: the merger calls it when every
// shard has echoed the oldest outstanding barrier. It consumes that
// barrier's snapshot, replays the interval's window events at their
// exact dispatch positions, and runs one monitor → assess → respond
// pass over the consistent cut.
func (c *ShardedController) Activate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.barriers) == 0 {
		// A barrier the controller did not request (foreign controller
		// mixup); nothing coherent to assess.
		return
	}
	snap := c.barriers[0]
	c.barriers = c.barriers[1:]
	// Replay in dispatch order. A sequential controller records a match
	// of dispatch step s while its window still sits at position s-1
	// (the window advances after the step completes), so the replay
	// lands every event at the identical position and A_{t,W} matches
	// the sequential count exactly, for any W and δadapt.
	if len(c.pendingEvents) > 0 {
		steps := make([]int, 0, len(c.pendingEvents))
		for s := range c.pendingEvents {
			steps = append(steps, s)
		}
		sort.Ints(steps)
		for _, s := range steps {
			ev := c.pendingEvents[s]
			for _, side := range []stream.Side{stream.Left, stream.Right} {
				if ev[side] > 0 {
					c.win[side].AdvanceTo(s - 1)
					c.win[side].Record(ev[side])
				}
			}
		}
		clear(c.pendingEvents)
	}
	for _, side := range []stream.Side{stream.Left, stream.Right} {
		c.win[side].AdvanceTo(snap.step)
	}
	// Accrue the logical spend through this barrier — the interval's
	// dispatches all ran under the current broadcast state thanks to
	// the executor's barrier rendezvous — before the activation, exactly
	// as the sequential driver prices the engine's stats including the
	// activation step itself.
	c.seqModel.StepsInState[c.state.Index()] += snap.step - c.seqModel.Steps
	c.seqModel.Steps = snap.step
	act := c.activate(c.observation(snap.step, c.observed, snap.read), c.state, metrics.Cost(c.seqModel, c.weights).Total)
	if act.To != act.From {
		c.state = act.To
		c.gen.Add(1)
		c.seqModel.TransitionsInto[act.To.Index()]++
		c.seqModel.Switches++
	}
}

// Sync implements pjoin.Controller: shard workers call it between
// tuples, at a per-shard quiescent point, and it applies any broadcast
// switch the shard has not seen yet. The fast path is a single atomic
// load.
func (c *ShardedController) Sync(shard int, e *join.Engine) {
	g := c.gen.Load()
	if g == c.applied[shard] {
		return
	}
	c.mu.Lock()
	target := c.state
	g = c.gen.Load()
	c.mu.Unlock()
	c.applied[shard] = g
	if target == e.State() {
		return
	}
	if _, err := e.SetState(target); err != nil {
		// Targets come from Decide over validated states; an error here
		// is a programming bug, not a data condition.
		panic(fmt.Sprintf("adaptive: sharded switch to %v: %v", target, err))
	}
}
