package pjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"adaptivelink/internal/datagen"
	"adaptivelink/internal/join"
)

// TestWindowParityAllStates is the golden sliding-window parity check:
// with RetainWindow set, a P-shard executor must produce exactly the
// same match set — including similarity, exactness, probe metadata and
// variant attribution — as the sequential windowed engine, in every
// fixed Fig. 4 processor state, because the shards apply the exact
// global window floor (from the splitter's sequence stamps) at every
// probe.
func TestWindowParityAllStates(t *testing.T) {
	for _, both := range []bool{false, true} {
		ds := testDataset(t, both)
		for _, window := range []int{25, 100, 350} {
			for _, state := range join.AllStates {
				for _, shards := range []int{2, 4} {
					name := fmt.Sprintf("%s/both=%v/w=%d/P=%d", state.Short(), both, window, shards)
					t.Run(name, func(t *testing.T) {
						cfg := join.Defaults()
						cfg.Initial = state
						cfg.RetainWindow = window
						want := runSequential(t, cfg, ds)
						got, st := runParallel(t, Config{Join: cfg, Shards: shards}, ds)
						diffSigs(t, want, got)
						if st.Evicted[0] == 0 && st.Evicted[1] == 0 {
							t.Error("no shard evictions despite a window smaller than the input")
						}
						// A shard compacts once a window's worth of its own
						// tuples is dead; only small windows are guaranteed to
						// get there, so the compaction assertion is gated.
						if window <= 100 && st.IndexEntriesDropped == 0 {
							t.Error("no index entries dropped by shard compaction")
						}
					})
				}
			}
		}
	}
}

// TestWindowParityHomeOnly checks the window floor under the home-only
// dispatch of an all-exact join too, where a shard sees only the tuples
// it stores: eviction must not depend on how tuples are dispatched.
func TestWindowParityHomeOnly(t *testing.T) {
	ds := testDataset(t, true)
	cfg := join.Defaults() // lex/rex
	cfg.RetainWindow = 60
	want := runSequential(t, cfg, ds)
	got, st := runParallel(t, Config{Join: cfg, Shards: 4}, ds)
	diffSigs(t, want, got)
	if st.ProbeOffers != 0 || st.Routed != st.Read {
		t.Errorf("home-only dispatch stored %v of %v tuples and ran %d probe-only offers", st.Routed, st.Read, st.ProbeOffers)
	}
}

// TestWindowParityRandom is the randomized property: for any seed,
// pattern, window size and shard count, the windowed parallel match set
// equals the sequential one. Run under -race by CI.
func TestWindowParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 6; trial++ {
		spec := datagen.Defaults(datagen.AllPatterns[rng.Intn(len(datagen.AllPatterns))], rng.Intn(2) == 0)
		spec.Seed = rng.Int63()
		spec.ParentSize = 120 + rng.Intn(200)
		spec.ChildSize = 120 + rng.Intn(200)
		ds, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := join.Defaults()
		cfg.Initial = join.AllStates[rng.Intn(len(join.AllStates))]
		cfg.RetainWindow = 5 + rng.Intn(250)
		shards := 2 + rng.Intn(4)
		name := fmt.Sprintf("trial%d/seed=%d/%s/w=%d/P=%d", trial, spec.Seed, cfg.Initial.Short(), cfg.RetainWindow, shards)
		t.Run(name, func(t *testing.T) {
			want := runSequential(t, cfg, ds)
			got, _ := runParallel(t, Config{Join: cfg, Shards: shards}, ds)
			diffSigs(t, want, got)
		})
	}
}
