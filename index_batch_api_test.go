package adaptivelink

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adaptivelink/internal/join"
)

// newIndexOn wraps an already-built resident implementation, so the
// public session machinery can run over the retained single-shard
// reference implementation.
func newIndexOn(res join.Resident, opts IndexOptions) *Index {
	ix := &Index{opts: opts}
	ix.setResident(res)
	return ix
}

func batchFixture(t *testing.T) (parent, probes []Tuple) {
	t.Helper()
	data, err := GenerateTestData(19, 250, 800, PatternFewHigh, 0.15, true)
	if err != nil {
		t.Fatalf("GenerateTestData: %v", err)
	}
	return data.Parent, data.Child
}

func renderProbeMatches(ms []ProbeMatch) string {
	out := ""
	for _, m := range ms {
		out += fmt.Sprintf("(%d %s %q %.9f %v)", m.Ref.ID, m.Ref.Key, m.Ref.Attrs, m.Similarity, m.Exact)
	}
	return out
}

// TestSessionProbeBatchMatchesSequential pins Session.ProbeBatch to its
// contract: identical matches, statistics and control-loop trajectory
// to probing the same keys one at a time — for every strategy, across
// several batch splits, on a sharded index.
func TestSessionProbeBatchMatchesSequential(t *testing.T) {
	parent, probes := batchFixture(t)
	ix, err := NewIndex(FromTuples(parent), IndexOptions{Shards: 4})
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	keys := make([]string, len(probes))
	for i, p := range probes {
		keys[i] = p.Key
	}
	strategies := []struct {
		name string
		opts SessionOptions
	}{
		{"adaptive", SessionOptions{Strategy: Adaptive}},
		{"adaptive-futility", SessionOptions{Strategy: Adaptive, FutilityK: 3}},
		{"adaptive-budget", SessionOptions{Strategy: Adaptive, CostBudget: 5000}},
		{"exact", SessionOptions{Strategy: ExactOnly}},
		{"approx", SessionOptions{Strategy: ApproximateOnly}},
	}
	for _, st := range strategies {
		st := st
		t.Run(st.name, func(t *testing.T) {
			seq, err := ix.NewSession(st.opts)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			want := make([]string, len(keys))
			for i, k := range keys {
				want[i] = renderProbeMatches(seq.Probe(k))
			}
			for _, chunk := range []int{1, 7, 64, len(keys)} {
				bat, err := ix.NewSession(st.opts)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				got := make([]string, 0, len(keys))
				for i := 0; i < len(keys); i += chunk {
					end := i + chunk
					if end > len(keys) {
						end = len(keys)
					}
					for _, ms := range bat.ProbeBatch(keys[i:end]) {
						got = append(got, renderProbeMatches(ms))
					}
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("chunk %d, key %d (%q): batch %s, sequential %s", chunk, i, keys[i], got[i], want[i])
					}
				}
				if !reflect.DeepEqual(bat.Stats(), seq.Stats()) {
					t.Fatalf("chunk %d: stats diverged\n batch %+v\n seq   %+v", chunk, bat.Stats(), seq.Stats())
				}
				if bat.State() != seq.State() {
					t.Fatalf("chunk %d: state %q vs %q", chunk, bat.State(), seq.State())
				}
			}
		})
	}
}

// TestIndexProbeBatchMatchesProbe pins the sessionless batch probe to
// the sessionless single probe's exact-then-escalate policy.
func TestIndexProbeBatchMatchesProbe(t *testing.T) {
	parent, probes := batchFixture(t)
	ix, err := NewIndex(FromTuples(parent), IndexOptions{Shards: 2})
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	keys := make([]string, 0, len(probes)+1)
	for _, p := range probes[:200] {
		keys = append(keys, p.Key)
	}
	keys = append(keys, "definitely absent key")
	got := ix.ProbeBatch(keys...)
	if len(got) != len(keys) {
		t.Fatalf("%d results for %d keys", len(got), len(keys))
	}
	for i, k := range keys {
		if want := ix.Probe(k); renderProbeMatches(got[i]) != renderProbeMatches(want) {
			t.Errorf("key %q: batch %s, single %s", k, renderProbeMatches(got[i]), renderProbeMatches(want))
		}
	}
	if out := ix.ProbeBatch(); len(out) != 0 {
		t.Fatalf("empty batch returned %v", out)
	}
}

// TestFacadeShardedMatchesSingleShardReference is the facade slice of
// the differential harness: public sessions over sharded indexes
// (N ∈ {1, 2, 4}, q-gram structures built by their first approximate
// probe) and over a single-shard reference whose q-gram structures are
// built before its first tuple and maintained by every upsert are
// driven with one seeded stream of interleaved single probes, batch
// probes and upserts, asserting identical matches AND identical
// per-session statistics at every step, for the adaptive strategy and
// both pinned ones.
func TestFacadeShardedMatchesSingleShardReference(t *testing.T) {
	parent, probes := batchFixture(t)
	for _, strategy := range []Strategy{Adaptive, ExactOnly, ApproximateOnly} {
		strategy := strategy
		t.Run(fmt.Sprintf("strategy=%d", int(strategy)), func(t *testing.T) {
			refJoin, err := join.NewShardedRefIndex(join.Defaults(), 1)
			if err != nil {
				t.Fatalf("NewShardedRefIndex: %v", err)
			}
			refJoin.ProbeApprox("") // builds the empty shard: maintained eagerly from here
			refIx := newIndexOn(refJoin, IndexOptions{Q: 3, Theta: join.DefaultTheta, Shards: 1})
			indexes := []*Index{refIx}
			for _, n := range []int{1, 2, 4} {
				ix, err := NewIndex(FromTuples(nil), IndexOptions{Shards: n})
				if err != nil {
					t.Fatalf("NewIndex: %v", err)
				}
				indexes = append(indexes, ix)
			}
			sessions := make([]*Session, len(indexes))
			for i, ix := range indexes {
				s, err := ix.NewSession(SessionOptions{Strategy: strategy, FutilityK: 4})
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				sessions[i] = s
			}
			// Seed all stores identically, then interleave.
			for _, ix := range indexes {
				ix.Upsert(parent[:100]...)
			}
			rng := rand.New(rand.NewSource(99))
			nextParent := 100
			for step := 0; step < 250; step++ {
				switch rng.Intn(6) {
				case 0: // upsert a slice of fresh parents (plus a payload refresh)
					hi := nextParent + rng.Intn(5)
					if hi > len(parent) {
						hi = len(parent)
					}
					batch := append([]Tuple(nil), parent[nextParent:hi]...)
					batch = append(batch, Tuple{ID: 9000 + step, Key: parent[rng.Intn(100)].Key,
						Attrs: []string{fmt.Sprintf("refreshed-%d", step)}})
					nextParent = hi
					var wantIns, wantUpd int
					for i, ix := range indexes {
						ins, upd, err := ix.Upsert(batch...)
						if err != nil {
							t.Fatal(err)
						}
						if i == 0 {
							wantIns, wantUpd = ins, upd
							continue
						}
						if ins != wantIns || upd != wantUpd {
							t.Fatalf("step %d: index %d upsert %d/%d, reference %d/%d", step, i, ins, upd, wantIns, wantUpd)
						}
					}
				case 1, 2: // batch probe
					lo := rng.Intn(len(probes) - 20)
					n := 1 + rng.Intn(20)
					keys := make([]string, n)
					for j := 0; j < n; j++ {
						keys[j] = probes[lo+j].Key
					}
					var want []string
					for i, s := range sessions {
						out := s.ProbeBatch(keys)
						rendered := make([]string, len(out))
						for j, ms := range out {
							rendered[j] = renderProbeMatches(ms)
						}
						if i == 0 {
							want = rendered
							continue
						}
						if !reflect.DeepEqual(rendered, want) {
							t.Fatalf("step %d: index %d batch diverged\n got  %v\n want %v", step, i, rendered, want)
						}
					}
				default: // single probe
					key := probes[rng.Intn(len(probes))].Key
					var want string
					for i, s := range sessions {
						got := renderProbeMatches(s.Probe(key))
						if i == 0 {
							want = got
							continue
						}
						if got != want {
							t.Fatalf("step %d: index %d probe %q = %s, reference %s", step, i, key, got, want)
						}
					}
				}
				// Per-session statistics must agree at every step.
				want := sessions[0].Stats()
				for i, s := range sessions[1:] {
					if got := s.Stats(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: index %d stats diverged\n got  %+v\n want %+v", step, i+1, got, want)
					}
				}
			}
			if st := sessions[0].Stats(); st.Probes == 0 || st.Matches == 0 {
				t.Fatalf("degenerate differential run: %+v", st)
			}
		})
	}
}

// TestIndexOptionsShardsValidation pins the Shards option's edges.
func TestIndexOptionsShardsValidation(t *testing.T) {
	if _, err := NewIndex(FromTuples(nil), IndexOptions{Shards: -2}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	ix, err := NewIndex(FromTuples(nil), IndexOptions{})
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	if ix.Options().Shards < 1 {
		t.Fatalf("defaulted Shards = %d, want >= 1", ix.Options().Shards)
	}
	ix, err = NewIndex(FromTuples(nil), IndexOptions{Shards: 3})
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	if ix.Options().Shards != 3 {
		t.Fatalf("explicit Shards = %d, want 3", ix.Options().Shards)
	}
}
