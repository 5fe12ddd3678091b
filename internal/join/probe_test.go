package join

import (
	"fmt"
	"sync"
	"testing"

	"adaptivelink/internal/relation"
)

func newTestRefIndex(t *testing.T, keys ...string) *RefIndex {
	t.Helper()
	r, err := NewRefIndex(Defaults())
	if err != nil {
		t.Fatalf("NewRefIndex: %v", err)
	}
	ts := make([]relation.Tuple, len(keys))
	for i, k := range keys {
		ts[i] = relation.Tuple{ID: i, Key: k, Attrs: []string{fmt.Sprintf("p%d", i)}}
	}
	r.Upsert(ts)
	return r
}

func TestRefIndexValidatesConfig(t *testing.T) {
	cfg := Defaults()
	cfg.Q = 0
	if _, err := NewRefIndex(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Initial state and RetainWindow are irrelevant to the resident mode
	// and must not be able to fail construction.
	cfg = Defaults()
	cfg.Initial = State{Mode(7), Mode(9)}
	cfg.RetainWindow = -3
	if _, err := NewRefIndex(cfg); err != nil {
		t.Fatalf("resident-irrelevant fields rejected: %v", err)
	}
}

func TestRefIndexProbeExact(t *testing.T) {
	r := newTestRefIndex(t, "via monte bianco nord 12", "lago di como est", "via monte bianco nord 12")
	// Duplicate key was upserted, not duplicated.
	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (duplicate key upserts)", got)
	}
	ms := r.ProbeExact("via monte bianco nord 12")
	if len(ms) != 1 || !ms[0].Exact || ms[0].Similarity != 1 {
		t.Fatalf("ProbeExact = %+v, want one exact match", ms)
	}
	if ms[0].Ref.Attrs[0] != "p2" {
		t.Fatalf("upsert did not replace payload: %+v", ms[0].Ref)
	}
	if got := r.ProbeExact("monte rosa sud"); got != nil {
		t.Fatalf("ProbeExact miss = %+v, want nil", got)
	}
}

func TestRefIndexProbeApproxMatchesEngineSemantics(t *testing.T) {
	keys := []string{"via monte bianco nord 12", "lago di como est", "valle verde ovest"}
	r := newTestRefIndex(t, keys...)
	// A one-character variant must verify above the calibrated θ.
	ms := r.ProbeApprox("via monte bianca nord 12")
	if len(ms) != 1 || ms[0].Exact || ms[0].Ref.Key != "via monte bianco nord 12" {
		t.Fatalf("variant probe = %+v", ms)
	}
	if ms[0].Similarity <= 0 || ms[0].Similarity >= 1 {
		t.Fatalf("variant similarity %v outside (0,1)", ms[0].Similarity)
	}
	// The exact key is reported by the approximate probe with sim 1,
	// exactly as the streaming engine's approximate operator reports it.
	ms = r.ProbeApprox("via monte bianco nord 12")
	if len(ms) != 1 || !ms[0].Exact || ms[0].Similarity != 1 {
		t.Fatalf("approx probe of exact key = %+v", ms)
	}
	// A completely different key matches nothing.
	if got := r.ProbeApprox("xyzzy quux"); got != nil {
		t.Fatalf("unrelated probe = %+v, want nil", got)
	}
	// Probe dispatches by mode.
	if got := r.Probe(Exact, "via monte bianca nord 12"); got != nil {
		t.Fatalf("exact-mode probe of variant = %+v, want nil", got)
	}
	if got := r.Probe(Approx, "via monte bianca nord 12"); len(got) != 1 {
		t.Fatalf("approx-mode probe of variant = %+v, want 1 match", got)
	}
}

func TestRefIndexUpsertAndAccessors(t *testing.T) {
	r := newTestRefIndex(t, "alpha road north", "beta lane south")
	exact, grams := r.Entries()
	if exact != 2 || grams == 0 {
		t.Fatalf("Entries = %d/%d", exact, grams)
	}
	ins, upd, _ := r.Upsert([]relation.Tuple{
		{ID: 9, Key: "alpha road north", Attrs: []string{"fresh"}},
		{ID: 10, Key: "gamma court east", Attrs: []string{"new"}},
	})
	if ins != 1 || upd != 1 {
		t.Fatalf("Upsert = %d inserted %d updated, want 1/1", ins, upd)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	tp, err := r.Tuple(0)
	if err != nil || tp.Attrs[0] != "fresh" {
		t.Fatalf("Tuple(0) = %+v, %v", tp, err)
	}
	if _, err := r.Tuple(99); err == nil {
		t.Fatal("out-of-range ref accepted")
	}
	if got := r.Config().Q; got != 3 {
		t.Fatalf("Config().Q = %d", got)
	}
	// Zero-tuple upsert is a no-op.
	if ins, upd, _ := r.Upsert(nil); ins != 0 || upd != 0 {
		t.Fatalf("empty upsert = %d/%d", ins, upd)
	}
}

// TestRefIndexConcurrentProbesAndUpserts exercises the read-mostly
// locking discipline under the race detector: many probers share the
// index while a maintainer applies incremental upserts.
func TestRefIndexConcurrentProbesAndUpserts(t *testing.T) {
	r := newTestRefIndex(t, "via monte bianco nord 12", "lago di como est", "valle verde ovest")
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			probes := []string{"via monte bianco nord 12", "via monte bianca nord 12", "lago di como est", "no such key"}
			for i := 0; i < 200; i++ {
				key := probes[(i+p)%len(probes)]
				r.ProbeExact(key)
				r.ProbeApprox(key)
				r.Len()
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Upsert([]relation.Tuple{
				{ID: 100 + i, Key: fmt.Sprintf("upserted street %d", i)},
				{ID: 200 + i, Key: "via monte bianco nord 12", Attrs: []string{fmt.Sprintf("v%d", i)}},
			})
		}
	}()
	wg.Wait()
	// 3 seeded + 50 fresh keys; the repeated key only updated.
	if got := r.Len(); got != 53 {
		t.Fatalf("Len after concurrent upserts = %d, want 53", got)
	}
}
