package adaptive

import (
	"fmt"

	"adaptivelink/internal/join"
	"adaptivelink/internal/stats"
	"adaptivelink/internal/stream"
)

// ProbeLoop is the Monitor–Assess–Respond control loop of Fig. 1
// re-targeted at the resident index-once/probe-many mode (join.Resident):
// one loop per probe *session*, with one engine step per probe, instead
// of one loop per batch run.
//
// The statistical machinery is reused verbatim — the binomial deficit
// predicate σ, the per-side window predicates µ/π, the transition rules
// ϕ₀..ϕ₃ and the futility/budget overrides are the one activation body
// (loop) the batch drivers run — under the resident-mode specialisation
// of the §3.2 observation model:
//
//   - The reference side is fully resident, so ParentSeen = ParentSize
//     and the per-trial match probability p(n) is 1: under parent–child
//     integrity every probe is expected to match, and any persistent
//     shortfall of hits against probes is significant evidence of
//     variants in the probe stream.
//   - Only the probe side ever runs an operator, so the reference-side
//     window is structurally empty (µ_left always holds) and the ϕ rules
//     degenerate to the three reachable states lex/rex, lex/rap and
//     lap/rap — whose probe-side mode is all the session consults.
//   - The first switch into approximate probing per shard builds that
//     shard's q-gram index (the resident index maintains it lazily,
//     §2.3), once over the index's lifetime; every other switch is
//     free, as the exact index and every built q-gram index are always
//     up to date. There is no catch-up to amortise per session, so
//     DeltaAdapt defaults to 1 — the loop does not price the one-time
//     build — and may assess after every probe, which is what enables
//     per-probe exact→approximate escalation (NoteProbe returns true
//     when the probe that just missed fired σ and the session switched,
//     so the caller can re-run that same probe approximately).
//
// A ProbeLoop is not safe for concurrent use; give each session its own.
type ProbeLoop struct {
	loop

	state          join.State
	probes         int // t: one step per probe
	hits           int // observed result size O̅ₜ: probes with ≥1 match
	win            *stats.SlidingWindow
	lastActivation int
	switches       int
	spend          float64
}

// DefaultProbeParams returns the session defaults: the paper's W, θout,
// θcurpert and θpastpert, with δadapt lowered to 1 — resident-mode
// switches have no catch-up cost, so the loop can afford to assess at
// every probe and escalate the very probe that exposed a deficit.
func DefaultProbeParams() Params {
	p := DefaultParams()
	p.DeltaAdapt = 1
	return p
}

// NewProbeLoop builds a session loop starting in the optimistic all-exact
// state. The loop models probe work under the paper's weights so
// Spend() is always available; EnableCostBudget makes it enforceable.
func NewProbeLoop(p Params) (*ProbeLoop, error) {
	lp, err := newLoop(p)
	if err != nil {
		return nil, err
	}
	if p.Estimator != EstimatorParentChild {
		return nil, fmt.Errorf("adaptive: probe loop supports only the parent-child estimator (the resident reference makes p(n)=1 exact, no calibration needed)")
	}
	return &ProbeLoop{loop: lp, state: join.LexRex, win: stats.NewSlidingWindow(p.W)}, nil
}

// State returns the session's processor state. Only the probe side's
// mode (State().Mode(stream.Right)) affects matching.
func (l *ProbeLoop) State() join.State { return l.state }

// Mode returns the probe-side matching mode.
func (l *ProbeLoop) Mode() join.Mode { return l.state.Mode(stream.Right) }

// Probes returns the number of probes observed (the step counter t).
func (l *ProbeLoop) Probes() int { return l.probes }

// Hits returns the number of probes that found at least one match (the
// observed result size the deficit test consumes).
func (l *ProbeLoop) Hits() int { return l.hits }

// Switches returns the number of enacted state changes.
func (l *ProbeLoop) Switches() int { return l.switches }

// Spend returns the session's modelled cost in all-exact-step units:
// each probe costs its state's step weight, each switch the target
// state's transition weight, and an escalated re-probe one extra
// approximate step.
func (l *ProbeLoop) Spend() float64 { return l.spend }

// NoteProbe observes one completed probe: refSize is the resident
// reference cardinality, hit whether the probe returned any match, and
// approxMatches how many of its matches were non-exact (they feed the
// probe-side perturbation window). It advances the step clock, runs an
// activation when due, and returns true when the caller should escalate
// — the probe missed under exact matching and the activation it
// triggered switched the session to approximate probing, so re-running
// this same probe approximately recovers the match whose absence fired σ.
func (l *ProbeLoop) NoteProbe(refSize int, hit bool, approxMatches int) (escalate bool) {
	wasExact := l.Mode() == join.Exact
	l.probes++
	if hit {
		l.hits++
	}
	if approxMatches > 0 {
		l.win.Record(approxMatches)
		l.approxSeen += approxMatches
	}
	l.spend += l.weights.Step[l.state.Index()]
	l.win.AdvanceTo(l.probes)
	if l.probes-l.lastActivation >= l.params.DeltaAdapt {
		l.activateAt(refSize)
	}
	return wasExact && l.Mode() == join.Approx && !hit
}

// BatchOutcome is one probe's observation inside a batch: whether it
// hit and how many of its matches were non-exact.
type BatchOutcome struct {
	Hit           bool
	ApproxMatches int
}

// NoteBatch feeds a batch of probe outcomes into the loop in order,
// stopping as soon as the probe mode changes — the point at which the
// caller's remaining already-probed results were computed under a stale
// operator and must be re-probed. It returns how many outcomes were
// consumed and whether the last consumed probe should be escalated
// (re-run approximately, then reported via NoteEscalation, exactly as
// for NoteProbe).
//
// Feeding outcomes through NoteBatch is observation-for-observation
// identical to calling NoteProbe in a loop: batching amortises the
// index work, never the statistics.
func (l *ProbeLoop) NoteBatch(refSize int, outs []BatchOutcome) (consumed int, escalate bool) {
	mode := l.Mode()
	for _, o := range outs {
		esc := l.NoteProbe(refSize, o.Hit, o.ApproxMatches)
		consumed++
		if esc {
			return consumed, true
		}
		if l.Mode() != mode {
			return consumed, false
		}
	}
	return consumed, false
}

// NoteEscalation folds an escalated re-probe's outcome into the session
// statistics: the probe previously counted as a miss becomes a hit when
// the approximate re-probe matched, its non-exact matches feed the
// window, and the re-probe is charged one approximate step.
func (l *ProbeLoop) NoteEscalation(hit bool, approxMatches int) {
	if hit {
		l.hits++
	}
	if approxMatches > 0 {
		l.win.Record(approxMatches)
		l.approxSeen += approxMatches
	}
	l.spend += l.weights.Step[l.state.Index()]
}

// activateAt runs one MAR activation against the resident observation
// model and enacts its verdict: a session switch is just a field — both
// resident indexes are always current. An empty reference yields no
// evidence (every probe trivially misses), so activation is skipped
// until the first upsert.
func (l *ProbeLoop) activateAt(refSize int) {
	l.lastActivation = l.probes
	if refSize <= 0 {
		return
	}
	// The reference side never probes: its window is structurally empty
	// and its history clean, exactly like the engine's lex side in state
	// lex/rap.
	act := l.activate(Observation{
		Step:        l.probes,
		Observed:    l.hits,
		ChildSeen:   l.probes,
		ParentSeen:  refSize,
		ParentSize:  refSize,
		WindowRight: l.win.Count(),
	}, l.state, l.spend)
	if act.To != l.state {
		l.state = act.To
		l.switches++
	}
	l.spend = act.Spend
}
