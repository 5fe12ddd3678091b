package adaptivelink

import (
	"math"
	"reflect"
	"testing"
)

// reconcile asserts the explain-mode contract: the per-key decision
// traces agree exactly with the session's own statistics — every probe
// has a decision, hits/escalations/matches sum to the session counters,
// the events' transitions count the session's switches, and the final
// spend equals ModelledCost to the bit.
func reconcile(t *testing.T, sess *Session, label string) {
	t.Helper()
	st := sess.Stats()
	ds := sess.Decisions()
	if len(ds) != st.Probes {
		t.Fatalf("%s: %d decisions for %d probes", label, len(ds), st.Probes)
	}
	var hits, matches, escalations, switches int
	for _, d := range ds {
		if d.Hit {
			hits++
		}
		matches += d.Matches
		if d.Escalated {
			escalations++
		}
		for _, e := range d.Events {
			if e.From != e.To {
				switches++
			}
		}
	}
	if hits != st.Hits {
		t.Errorf("%s: decision hits %d != session hits %d", label, hits, st.Hits)
	}
	if matches != st.Matches {
		t.Errorf("%s: decision matches %d != session matches %d", label, matches, st.Matches)
	}
	if escalations != st.Escalations {
		t.Errorf("%s: decision escalations %d != session escalations %d", label, escalations, st.Escalations)
	}
	if switches != st.Switches {
		t.Errorf("%s: decision transitions %d != session switches %d", label, switches, st.Switches)
	}
	if n := len(ds); n > 0 {
		if got, want := ds[n-1].SpendAfter, st.ModelledCost; got != want {
			t.Errorf("%s: final spend %v != ModelledCost %v", label, got, want)
		}
	}
	// SpendAfter is monotonic: probes only ever add cost.
	for i := 1; i < len(ds); i++ {
		if ds[i].SpendAfter < ds[i-1].SpendAfter {
			t.Errorf("%s: spend regressed at key %d: %v -> %v", label, i, ds[i-1].SpendAfter, ds[i].SpendAfter)
		}
	}
	// Event self-consistency: events carry the probe's step clock and
	// internally consistent reasons.
	for i, d := range ds {
		for _, e := range d.Events {
			if e.From == e.To && (e.Reason == "deficit" || e.Reason == "window-clear") {
				t.Errorf("%s: key %d: stationary event labelled %q", label, i, e.Reason)
			}
			if e.From != e.To && (e.Reason == "steady" || e.Reason == "deficit-held") {
				t.Errorf("%s: key %d: transition labelled %q", label, i, e.Reason)
			}
		}
	}
}

// TestExplainReconcilesAcrossStates drives explain-mode sessions
// through every Fig. 4 state a resident session can report — lex/rex
// (clean exact probing), lex/rap (probe-side escalation and the window
// drain back), lap/rap (a fixed all-approximate session) — plus the
// forced decisions (budget pin, futility revert), and pins the
// reconciliation contract in each.
func TestExplainReconcilesAcrossStates(t *testing.T) {
	statesSeen := map[string]bool{}

	t.Run("adaptive round trip", func(t *testing.T) {
		ix := newTestIndex(t, "via monte bianco nord 12", "lago di como est", "valle verde ovest 9")
		sess, err := ix.NewSession(SessionOptions{Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			sess.Probe("lago di como est")
		}
		// Variant: exact miss fires σ, the session escalates this very
		// probe into lex/rap and recovers the match.
		sess.Probe("via monte bianca nord 12")
		// Clean stretch: the perturbation window drains, the session
		// reverts to lex/rex.
		for i := 0; i < 120; i++ {
			sess.Probe("lago di como est")
		}
		reconcile(t, sess, "adaptive")

		ds := sess.Decisions()
		esc := ds[5]
		if !esc.Escalated || !esc.Hit || esc.Mode != "ex" {
			t.Fatalf("escalated key decision = %+v", esc)
		}
		var deficit, clear bool
		for _, d := range ds {
			statesSeen[d.Mode] = true
			for _, e := range d.Events {
				statesSeen[e.From] = true
				statesSeen[e.To] = true
				if e.Reason == "deficit" {
					deficit = true
					if !e.Sigma {
						t.Error("deficit event without sigma")
					}
					if e.Tail > 0.05 {
						t.Errorf("deficit event tail %v above θout", e.Tail)
					}
				}
				if e.Reason == "window-clear" {
					clear = true
				}
			}
		}
		if !deficit || !clear {
			t.Fatalf("round trip missing reasons: deficit=%v window-clear=%v", deficit, clear)
		}
		// The resident model's expectation is p=1: expected hits = probes.
		for _, d := range ds {
			for _, e := range d.Events {
				if math.Abs(e.ExpectedHits-float64(e.Probe)) > 1e-9 {
					t.Fatalf("expected hits %v at probe %d under p=1", e.ExpectedHits, e.Probe)
				}
			}
		}
	})

	t.Run("futility", func(t *testing.T) {
		ix := newTestIndex(t, "via monte bianco nord 12")
		sess, err := ix.NewSession(SessionOptions{Explain: true, FutilityK: 3})
		if err != nil {
			t.Fatal(err)
		}
		// A key with no counterpart at all: permanent deficit, fruitless
		// approximate probing, futility revert.
		for i := 0; i < 15; i++ {
			sess.Probe("xyzzy plugh 404")
		}
		reconcile(t, sess, "futility")
		var futility bool
		for _, d := range sess.Decisions() {
			for _, e := range d.Events {
				statesSeen[e.From], statesSeen[e.To] = true, true
				if e.Reason == "futility" {
					futility = true
				}
			}
		}
		if !futility {
			t.Fatal("futility revert not visible in the decision trace")
		}
	})

	t.Run("budget", func(t *testing.T) {
		ix := newTestIndex(t, "via monte bianco nord 12")
		sess, err := ix.NewSession(SessionOptions{Explain: true, CostBudget: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			sess.Probe("xyzzy plugh 404")
		}
		reconcile(t, sess, "budget")
		var budget bool
		for _, d := range sess.Decisions() {
			if d.Escalated {
				t.Error("budget-pinned session escalated")
			}
			for _, e := range d.Events {
				if e.Reason == "budget" {
					budget = true
				}
			}
		}
		if !budget {
			t.Fatal("budget pin not visible in the decision trace")
		}
	})

	t.Run("fixed exact", func(t *testing.T) {
		ix := newTestIndex(t, "via monte bianco nord 12", "lago di como est")
		sess, err := ix.NewSession(SessionOptions{Strategy: ExactOnly, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		sess.Probe("lago di como est")
		sess.Probe("via monte bianca nord 12") // miss: fixed sessions never escalate
		reconcile(t, sess, "exact-only")
		for _, d := range sess.Decisions() {
			statesSeen[d.Mode] = true
			if d.Mode != "ex" || d.Escalated || len(d.Events) != 0 {
				t.Fatalf("exact-only decision = %+v", d)
			}
		}
	})

	t.Run("fixed approx", func(t *testing.T) {
		ix := newTestIndex(t, "via monte bianco nord 12", "lago di como est")
		sess, err := ix.NewSession(SessionOptions{Strategy: ApproximateOnly, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		sess.Probe("via monte bianca nord 12")
		sess.Probe("lago di como est")
		reconcile(t, sess, "approx-only")
		for _, d := range sess.Decisions() {
			statesSeen[d.Mode] = true
			if d.Mode != "ap" {
				t.Fatalf("approx-only decision mode = %q", d.Mode)
			}
		}
	})

	// Between the adaptive trajectory and the fixed strategies the traces
	// covered both probe operators and the session-reachable Fig. 4
	// states (the resident reference never runs an operator of its own,
	// so the intermediate single-side states exist only in the batch
	// engine — covered by Join's Activations).
	for _, want := range []string{"ex", "ap", "lex/rex", "lap/rap"} {
		if !statesSeen[want] {
			t.Errorf("no decision trace touched %q (saw %v)", want, statesSeen)
		}
	}
}

// TestExplainBatchMatchesSequential: ProbeBatch under explain produces
// the same matches, statistics and decisions — events included — as
// probing key by key, for the adaptive strategy (whose explain batches
// run the per-key step) and the fixed ones (which stay on the batch
// path); and the recorder is only a recorder: a session without Explain
// fed the same keys through the speculating batch path returns the same
// matches and statistics, and the events are exactly the session's
// activation trace cut per key.
func TestExplainBatchMatchesSequential(t *testing.T) {
	keys := []string{
		"lago di como est", "via monte bianco nord 12", "via monte bianca nord 12",
		"xyzzy plugh 404", "valle verde ovest 9", "lago di como est",
	}
	for _, strategy := range []Strategy{Adaptive, ExactOnly, ApproximateOnly} {
		t.Run(strategy.String(), func(t *testing.T) {
			mk := func(explain bool) *Session {
				ix := newTestIndex(t, "via monte bianco nord 12", "lago di como est", "valle verde ovest 9")
				sess, err := ix.NewSession(SessionOptions{Strategy: strategy, Explain: explain, FutilityK: 3})
				if err != nil {
					t.Fatal(err)
				}
				return sess
			}
			one := mk(true)
			var seq [][]ProbeMatch
			for _, k := range keys {
				seq = append(seq, one.Probe(k))
			}
			batch, plain := mk(true), mk(false)
			got, bare := batch.ProbeBatch(keys), plain.ProbeBatch(keys)
			if !reflect.DeepEqual(got, seq) {
				t.Fatalf("explain batch matches diverge from sequential:\n%v\n%v", got, seq)
			}
			if !reflect.DeepEqual(bare, seq) {
				t.Fatalf("no-explain batch matches diverge from the explain session's:\n%v\n%v", bare, seq)
			}
			if a, b := one.Stats(), batch.Stats(); a != b {
				t.Fatalf("stats diverge: sequential %+v, batch %+v", a, b)
			}
			if a, b := one.Stats(), plain.Stats(); a != b {
				t.Fatalf("the recorder perturbed the session: explain %+v, plain %+v", a, b)
			}
			if plain.Decisions() != nil {
				t.Fatal("Decisions non-nil without Explain")
			}
			if da, db := one.Decisions(), batch.Decisions(); !reflect.DeepEqual(da, db) {
				t.Fatalf("decisions diverge:\n%+v\n%+v", da, db)
			}
			reconcile(t, batch, "batch")

			// The events are the activation trace, cut per key: nothing
			// dropped, nothing duplicated, every field carried over.
			var events []DecisionPoint
			for i, d := range batch.Decisions() {
				if d.Key != keys[i] {
					t.Errorf("decision %d is for %q, want %q", i, d.Key, keys[i])
				}
				for _, e := range d.Events {
					if e.Probe != i+1 {
						t.Errorf("key %d carries the activation of probe %d", i, e.Probe)
					}
				}
				events = append(events, d.Events...)
			}
			acts := batch.Activations()
			if strategy != Adaptive {
				if acts != nil || events != nil {
					t.Fatalf("fixed strategy recorded activations %v / events %v", acts, events)
				}
				return
			}
			if len(events) != len(keys) || len(acts) != len(events) {
				t.Fatalf("%d events, %d activations for %d keys at δadapt=1", len(events), len(acts), len(keys))
			}
			for i, e := range events {
				a := acts[i]
				want := DecisionPoint{Probe: a.Step, ObservedHits: a.Observed, ExpectedHits: a.Expected, Tail: a.Tail,
					Sigma: a.Sigma, From: a.From, To: a.To, Reason: a.Reason, Spend: a.Spend}
				if e != want {
					t.Errorf("event %d = %+v, activation %+v", i, e, a)
				}
			}
		})
	}
}

func TestExplainDisabledReturnsNil(t *testing.T) {
	ix := newTestIndex(t, "via monte bianco nord 12")
	sess, err := ix.NewSession(SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess.Probe("via monte bianco nord 12")
	if sess.Decisions() != nil {
		t.Fatal("Decisions non-nil without Explain")
	}
}
