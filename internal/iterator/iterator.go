// Package iterator defines the iterator-based evaluation contract
// (Graefe's OPEN/NEXT/CLOSE protocol) that both join operators follow,
// including the notion of a quiescent state.
//
// Fig. 2 of the paper gives the state-transition diagram of an iterator:
// a closed operator is opened, repeatedly asked for the next result, and
// finally closed. Following Eurviriyanukul et al., a state N′ reached at
// the end of a NEXT() call is *quiescent* when the operator holds no
// half-processed work — for a symmetric hash join, when the last tuple
// read has been joined with every match in the opposite hash table. Only
// in quiescent states may the adaptive responder replace the physical
// operator without losing or duplicating results.
package iterator

import "fmt"

// Operator is the iterator contract for an operator producing values of
// type T. Next returns ok=false on exhaustion (state E in Fig. 2), after
// which the operator remains exhausted until closed.
type Operator[T any] interface {
	// Open prepares the operator for producing results.
	Open() error
	// Next returns the next result, or ok=false when exhausted.
	Next() (v T, ok bool, err error)
	// Close releases resources; the operator cannot be reopened.
	Close() error
}

// Phase is a lifecycle phase from Fig. 2.
type Phase int

const (
	// PhaseClosed is the initial phase, before Open.
	PhaseClosed Phase = iota
	// PhaseOpen means Open succeeded and Next may be called.
	PhaseOpen
	// PhaseExhausted means Next has returned ok=false.
	PhaseExhausted
	// PhaseDone means Close has been called.
	PhaseDone
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseClosed:
		return "closed"
	case PhaseOpen:
		return "open"
	case PhaseExhausted:
		return "exhausted"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Lifecycle enforces the legal call sequence of Fig. 2. Operators embed
// it and call the check methods at their entry points, so protocol
// violations (Next before Open, use after Close) surface as errors at
// the call site instead of corrupting state.
type Lifecycle struct {
	phase Phase
}

// Phase returns the current lifecycle phase.
func (l *Lifecycle) Phase() Phase { return l.phase }

// CheckOpen validates and applies an Open transition.
func (l *Lifecycle) CheckOpen() error {
	if l.phase != PhaseClosed {
		return fmt.Errorf("iterator: Open in phase %v", l.phase)
	}
	l.phase = PhaseOpen
	return nil
}

// CheckNext validates a Next call; it does not change phase.
func (l *Lifecycle) CheckNext() error {
	switch l.phase {
	case PhaseOpen, PhaseExhausted:
		return nil
	default:
		return fmt.Errorf("iterator: Next in phase %v", l.phase)
	}
}

// MarkExhausted records that Next returned ok=false.
func (l *Lifecycle) MarkExhausted() {
	if l.phase == PhaseOpen {
		l.phase = PhaseExhausted
	}
}

// CheckClose validates and applies a Close transition. Closing twice is
// an error; closing a never-opened operator is allowed (a no-op close),
// matching common executor shutdown paths.
func (l *Lifecycle) CheckClose() error {
	if l.phase == PhaseDone {
		return fmt.Errorf("iterator: Close in phase %v", l.phase)
	}
	l.phase = PhaseDone
	return nil
}

// Drain pulls the operator to exhaustion, appending every produced value
// to out and returning it. It opens the operator if still closed and
// closes it afterwards. Primarily a convenience for tests, tools and
// examples that want the full result set.
func Drain[T any](op Operator[T], out []T) ([]T, error) {
	if lc, ok := op.(interface{ Phase() Phase }); !ok || lc.Phase() == PhaseClosed {
		if err := op.Open(); err != nil {
			return out, err
		}
	}
	for {
		v, ok, err := op.Next()
		if err != nil {
			op.Close()
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out, op.Close()
}
