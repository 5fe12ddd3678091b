package adaptive

import (
	"math"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/pjoin"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/stream"
)

// runShardedWith drives a prebuilt controller through a full P-shard
// join (runSharded's body, minus controller construction).
func runShardedWith(t *testing.T, ctl *ShardedController, parent, child *relation.Relation, shards int) {
	t.Helper()
	ex, err := pjoin.New(pjoin.Config{Join: join.Defaults(), Shards: shards, Controller: ctl},
		stream.FromRelation(parent), stream.FromRelation(child))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := ex.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionReason pins the label Activation.Reason derives from the
// respond outcome.
func TestDecisionReason(t *testing.T) {
	cases := []struct {
		from, to join.State
		sigma    bool
		forced   string
		want     string
	}{
		{join.LexRex, join.LexRex, false, "", "steady"},
		{join.LexRex, join.LexRex, true, "", "deficit-held"},
		{join.LexRex, join.LexRap, true, "", "deficit"},
		{join.LexRap, join.LexRex, false, "", "window-clear"},
		{join.LapRap, join.LexRex, false, "futility", "futility"},
		{join.LexRap, join.LexRex, true, "budget", "budget"},
	}
	for _, c := range cases {
		a := Activation{From: c.from, To: c.to, Forced: c.forced, Assessment: Assessment{Sigma: c.sigma}}
		if got := a.Reason(); got != c.want {
			t.Errorf("Reason(%v,%v,%v,%q) = %q, want %q", c.from, c.to, c.sigma, c.forced, got, c.want)
		}
	}
}

// TestProbeLoopActivationRecord: the trace is the whole record of a
// session's firings — one Activation per activation, Expected = p̂·probes
// (= probes under the resident p=1 model), the tail behind every σ, the
// reason of both switches of a perturbation round trip, and Spend equal
// to the loop's own accounting at each activation.
func TestProbeLoopActivationRecord(t *testing.T) {
	l := newTestProbeLoop(t, nil)
	l.EnableTrace()

	const ref = 100
	note := func(hit bool) bool {
		esc := l.NoteProbe(ref, hit, 0)
		// δadapt = 1: the probe just noted fired the last activation, and
		// nothing has been charged since.
		trace := l.Activations()
		if len(trace) != l.Probes() {
			t.Fatalf("%d activations after %d probes", len(trace), l.Probes())
		}
		if last := trace[len(trace)-1]; last.Spend != l.Spend() {
			t.Errorf("activation %d: spend %v, loop spend %v", len(trace)-1, last.Spend, l.Spend())
		}
		return esc
	}
	for i := 0; i < 10; i++ {
		note(true)
	}
	if note(false) { // deficit -> approx, escalate
		l.NoteEscalation(true, 1)
	}
	note(true) // window clear -> back to exact

	w := metrics.PaperWeights()
	var out, back bool
	prev := 0.0
	for i, a := range l.Activations() {
		if a.Observation.Step != i+1 || a.Observation.ChildSeen != i+1 {
			t.Errorf("activation %d: step %d, child seen %d", i, a.Observation.Step, a.Observation.ChildSeen)
		}
		// Resident model: p(n)=1, so expected hits = probes seen.
		if want := float64(i + 1); math.Abs(a.Expected()-want) > 1e-9 {
			t.Errorf("activation %d: expected %v, want %v", i, a.Expected(), want)
		}
		if a.Assessment.Sigma != (a.Assessment.Tail <= l.Params().ThetaOut) {
			t.Errorf("activation %d: sigma %v with tail %v", i, a.Assessment.Sigma, a.Assessment.Tail)
		}
		if a.Forced != "" {
			t.Errorf("activation %d: forced %q without budget or futility", i, a.Forced)
		}
		// Each activation's spend is the previous one's plus the probe's
		// step (and, after the escalation, its approximate re-probe) plus
		// the transition it decided.
		if min := prev + w.Step[a.From.Index()]; a.Spend < min {
			t.Errorf("activation %d: spend %v below %v", i, a.Spend, min)
		}
		if a.From != a.To && a.Spend < prev+w.Transition[a.To.Index()] {
			t.Errorf("activation %d: switch into %v not priced: %v -> %v", i, a.To, prev, a.Spend)
		}
		prev = a.Spend
		if a.From == join.LexRex && a.To != join.LexRex && a.Reason() == "deficit" {
			out = true
		}
		if a.From != join.LexRex && a.To == join.LexRex && a.Reason() == "window-clear" {
			back = true
		}
	}
	if !out || !back {
		t.Errorf("missing transition reasons: deficit=%v window-clear=%v", out, back)
	}
}

// TestProbeLoopActivationRecordForced: budget and futility overrides
// carry their forced label, as the reason, on the activation.
func TestProbeLoopActivationRecordForced(t *testing.T) {
	l := newTestProbeLoop(t, func(p *Params) { p.FutilityK = 2 })
	l.EnableTrace()
	const ref = 50
	l.NoteProbe(ref, false, 0)
	l.NoteEscalation(false, 0)
	for i := 0; i < 10 && l.Mode() == join.Approx; i++ {
		l.NoteProbe(ref, false, 0)
		l.NoteEscalation(false, 0)
	}
	var futility bool
	for _, a := range l.Activations() {
		if a.Forced == "futility" && a.Reason() == "futility" && a.To == join.LexRex {
			futility = true
		}
	}
	if !futility {
		t.Fatal("futility revert not visible in the trace")
	}

	// Budget: a tiny budget pins the state and labels the activation.
	lb := newTestProbeLoop(t, nil)
	lb.EnableTrace()
	if err := lb.EnableCostBudget(metrics.PaperWeights(), 0.5); err != nil {
		t.Fatal(err)
	}
	lb.NoteProbe(ref, false, 0) // over budget immediately: forced to stay exact
	acts := lb.Activations()
	if len(acts) != 1 || acts[0].Forced != "budget" || acts[0].Reason() != "budget" || acts[0].To != join.LexRex {
		t.Fatalf("budget pin not visible in the trace: %+v", acts)
	}
	if acts[0].Spend != lb.Spend() || acts[0].Spend < 0.5 {
		t.Errorf("budget activation spend %v, loop spend %v", acts[0].Spend, lb.Spend())
	}
}

// TestShardedActivationRecord: the sharded controller's trace carries
// both directions of the perturbation round trip with consistent
// reasons and expectations, prices every switch, and ends on the
// controller's own spend counter.
func TestShardedActivationRecord(t *testing.T) {
	parent, child := buildScenario(11, 400, 40, 80)
	ctl, err := NewSharded(4, stream.Left, parent.Len(), shardedParams())
	if err != nil {
		t.Fatal(err)
	}
	ctl.EnableTrace()
	runShardedWith(t, ctl, parent, child, 4)

	trace := ctl.Activations()
	if len(trace) == 0 {
		t.Fatal("no activations recorded")
	}
	w := metrics.PaperWeights()
	var out, back bool
	prev := 0.0
	for i, a := range trace {
		if want := a.Assessment.P * float64(a.Observation.ChildSeen); math.Abs(a.Expected()-want) > 1e-9 {
			t.Errorf("activation %d: expected %v, want %v", i, a.Expected(), want)
		}
		if a.Forced != "" {
			t.Errorf("activation %d: forced %q without budget or futility", i, a.Forced)
		}
		if a.Spend <= prev {
			t.Errorf("activation %d: spend %v not above the previous %v", i, a.Spend, prev)
		}
		if a.From != a.To {
			if a.Spend < prev+w.Transition[a.To.Index()] {
				t.Errorf("activation %d: switch into %v not priced: %v -> %v", i, a.To, prev, a.Spend)
			}
			switch a.Reason() {
			case "deficit":
				out = true
			case "window-clear":
				back = true
			default:
				t.Errorf("activation %d: transition labelled %q", i, a.Reason())
			}
		}
		prev = a.Spend
	}
	if !out || !back {
		t.Fatalf("round trip missing from the trace: deficit=%v window-clear=%v", out, back)
	}
	if last := trace[len(trace)-1].Spend; math.Abs(last-ctl.Spend()) > 1e-9*last {
		t.Errorf("last activation spend %v, controller spend %v", last, ctl.Spend())
	}
}

// TestShardedSpendMatchesSequential: on the budget-parity scenario the
// sequential and sharded traces agree on Spend at every activation —
// the two drivers price the same logical scan through the same loop —
// and the last activation's Spend is the spend counter the budget was
// enforced against.
func TestShardedSpendMatchesSequential(t *testing.T) {
	parent, child := buildScenario(17, 500, 50, 200) // heavy perturbation
	const budget = 3000.0
	_, seqCtl := runBudgeted(t, parent, child, testParams(), budget)
	seqActs := seqCtl.Activations()
	for _, shards := range []int{2, 4} {
		ctl, _, _ := runShardedBudget(t, parent, child, testParams(), shards, budget)
		parActs := ctl.Activations()
		if len(seqActs) != len(parActs) {
			t.Fatalf("P=%d: %d activations, sequential %d", shards, len(parActs), len(seqActs))
		}
		for i := range seqActs {
			if s, p := seqActs[i].Spend, parActs[i].Spend; s != p || p <= 0 {
				t.Errorf("P=%d activation %d: spend %v, sequential %v", shards, i, p, s)
			}
		}
		if last := parActs[len(parActs)-1].Spend; math.Abs(last-ctl.Spend()) > 1e-9*last {
			t.Errorf("P=%d: last activation spend %v, controller spend %v", shards, last, ctl.Spend())
		}
	}
}
