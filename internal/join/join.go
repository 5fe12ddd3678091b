// Package join implements the paper's physical join operators: the exact
// pipelined symmetric hash join SHJoin (Wilschut & Apers), the
// approximate pipelined symmetric set hash join SSHJoin (a symmetric,
// pipelined re-implementation of Chaudhuri et al.'s SSJoin on q-grams),
// and the hybrid switchable Engine that the adaptive controller drives.
//
// The Engine is a single symmetric scan over two inputs in which each
// side has an independent matching Mode: tuples read from a side are
// matched exactly (hash lookup on the join key) or approximately (q-gram
// probe plus similarity verification) against the tuples stored so far
// on the opposite side. The four mode combinations are exactly the four
// processor states of Fig. 4 (lex/rex, lap/rex, lex/rap, lap/rap). Modes
// may be switched — only at quiescent points — and the engine performs
// the lazy hash-table catch-up of §2.3, paying only for tuples read
// since the previous switch.
package join

import (
	"fmt"

	"adaptivelink/internal/normalize"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/stream"
)

// Mode says how tuples read from a given input side are matched against
// the opposite side's stored tuples.
type Mode int

const (
	// Exact matches on join-key equality via a hash lookup.
	Exact Mode = iota
	// Approx matches by q-gram similarity above the configured threshold.
	Approx
)

// String returns "ex" or "ap", the abbreviations used in the paper's
// state names.
func (m Mode) String() string {
	switch m {
	case Exact:
		return "ex"
	case Approx:
		return "ap"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// State is a processor state of Fig. 4: the pair of per-side modes.
type State struct {
	Left  Mode
	Right Mode
}

// Canonical states.
var (
	// LexRex matches both sides exactly (the optimistic initial state).
	LexRex = State{Exact, Exact}
	// LapRex matches left tuples approximately, right tuples exactly.
	LapRex = State{Approx, Exact}
	// LexRap matches left tuples exactly, right tuples approximately.
	LexRap = State{Exact, Approx}
	// LapRap matches both sides approximately.
	LapRap = State{Approx, Approx}
)

// AllStates lists the four states in the paper's reporting order
// (EE, AE, EA, AA).
var AllStates = []State{LexRex, LapRex, LexRap, LapRap}

// String renders the paper's state name, e.g. "lex/rex".
func (s State) String() string {
	return fmt.Sprintf("l%s/r%s", s.Left, s.Right)
}

// Short renders the compact two-letter form used in Figs. 7–8
// (EE, AE, EA, AA; first letter = left side).
func (s State) Short() string {
	letter := func(m Mode) string {
		if m == Exact {
			return "E"
		}
		return "A"
	}
	return letter(s.Left) + letter(s.Right)
}

// Index returns the position of s in AllStates.
func (s State) Index() int {
	for i, st := range AllStates {
		if st == s {
			return i
		}
	}
	panic(fmt.Sprintf("join: unknown state %+v", s))
}

// Mode returns the mode of the given side.
func (s State) Mode(side stream.Side) Mode {
	if side == stream.Left {
		return s.Left
	}
	return s.Right
}

// Attribution says which input a non-exact (variant) match has been
// blamed on, via the matched-flag mechanism of §3.3.
type Attribution int

const (
	// AttrNone marks exact matches, which carry no variant evidence.
	AttrNone Attribution = iota
	// AttrLeft blames the left input's tuple.
	AttrLeft
	// AttrRight blames the right input's tuple.
	AttrRight
	// AttrBoth is the default when no evidence identifies a side.
	AttrBoth
)

// String names the attribution.
func (a Attribution) String() string {
	switch a {
	case AttrNone:
		return "none"
	case AttrLeft:
		return "left"
	case AttrRight:
		return "right"
	case AttrBoth:
		return "both"
	default:
		return fmt.Sprintf("Attribution(%d)", int(a))
	}
}

// Blames reports whether the attribution includes the given side.
func (a Attribution) Blames(side stream.Side) bool {
	switch a {
	case AttrBoth:
		return true
	case AttrLeft:
		return side == stream.Left
	case AttrRight:
		return side == stream.Right
	default:
		return false
	}
}

// Match is one joined pair. LeftRef/RightRef are the tuples' positions
// in their sides' stores (equal to arrival order); the probing tuple of
// an Engine.ProbeOnly call is not stored and has ref -1.
type Match struct {
	LeftRef  int
	RightRef int
	LeftKey  string
	RightKey string
	// Similarity is the verified similarity of the two keys: 1 for
	// key-equal pairs, otherwise the configured measure's value.
	Similarity float64
	// Exact reports key equality (how the pair was found is ProbeMode).
	Exact bool
	// ProbeSide is the side whose tuple arrived second and probed.
	ProbeSide stream.Side
	// ProbeMode is the mode the probe was executed under.
	ProbeMode Mode
	// Attribution blames a side for non-exact matches (AttrNone for
	// exact ones).
	Attribution Attribution
	// Step is the engine step (quiescent-state count) at which the
	// probe ran.
	Step int
}

// Config parameterises the engine. The zero value is not valid; use
// Defaults or fill every field and call Validate.
type Config struct {
	// Q is the q-gram width (paper: 3).
	Q int
	// Measure is the token similarity coefficient (paper: Jaccard).
	Measure simfn.TokenMeasure
	// Theta is the similarity threshold θsim above which an
	// approximate pair is reported.
	Theta float64
	// Initial is the starting state (paper: optimistic lex/rex).
	Initial State
	// RetainWindow, when positive, gives the join sliding-window
	// semantics for unbounded streams (Kang et al., which the paper
	// builds on for asymmetric operator combinations): a new tuple
	// matches only the most recent RetainWindow tuples of the opposite
	// side, evicted tuples' payloads are released, and their index
	// entries are dropped by amortised compaction (Engine.EvictBelow /
	// CompactEvicted), bounding index memory at ~2·RetainWindow entries
	// per side. 0 (default) retains everything — the paper's
	// finite-table setting. A small per-tuple residue (key string and
	// gram-size bookkeeping) still grows with stream length.
	RetainWindow int
	// Profile names the normalize.ProfileNamed pipeline both sides'
	// keys were normalised with before reaching the engine. The engine
	// itself never applies it — normalization happens at the facade and
	// service boundaries — but the label travels with the configuration
	// into snapshot metadata, so stored indexes refuse to load under a
	// different normalization than the one that built their keys. ""
	// (the default) means keys are joined verbatim.
	Profile string
}

// DefaultTheta is the calibrated similarity threshold for this
// implementation's padded q-gram Jaccard: every 1-character edit on the
// generator's location strings stays above it while distinct locations
// stay well below (the paper tuned 0.85 for its own gram definition the
// same way; `cmd/experiments -all` regenerates the evaluation that rests
// on it).
const DefaultTheta = 0.75

// Defaults returns the paper's configuration: q=3, Jaccard, calibrated
// θsim, optimistic initial state.
func Defaults() Config {
	return Config{Q: 3, Measure: simfn.Jaccard, Theta: DefaultTheta, Initial: LexRex}
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	if c.Q < 1 {
		return fmt.Errorf("join: q-gram width %d < 1", c.Q)
	}
	if c.Theta <= 0 || c.Theta > 1 {
		return fmt.Errorf("join: similarity threshold %v outside (0,1]", c.Theta)
	}
	switch c.Measure {
	case simfn.Jaccard, simfn.Dice, simfn.Cosine, simfn.Overlap:
	default:
		return fmt.Errorf("join: unknown similarity measure %d", int(c.Measure))
	}
	switch c.Initial {
	case LexRex, LapRex, LexRap, LapRap:
	default:
		return fmt.Errorf("join: invalid initial state %+v", c.Initial)
	}
	if c.RetainWindow < 0 {
		return fmt.Errorf("join: retain window %d negative", c.RetainWindow)
	}
	if _, err := normalize.ProfileNamed(c.Profile); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	return nil
}
