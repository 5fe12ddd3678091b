package join

import (
	"testing"

	"adaptivelink/internal/relation"
	"adaptivelink/internal/stream"
)

func TestRetainWindowValidation(t *testing.T) {
	cfg := Defaults()
	cfg.RetainWindow = -1
	if cfg.Validate() == nil {
		t.Error("negative retain window accepted")
	}
	cfg.RetainWindow = 10
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid retain window rejected: %v", err)
	}
}

func TestWindowLimitsMatchingScope(t *testing.T) {
	// Right tuple "target" arrives after more than RetainWindow left
	// tuples have passed, so the matching left tuple (read first) has
	// been evicted: no match. A second occurrence inside the window
	// must still match.
	left := relation.FromKeys("L",
		"target location alpha beta", // ref 0: will be evicted
		"filler location one xx", "filler location two xx", "filler location three",
		"filler location four xx", "filler location five x",
		"target location alpha beta", // ref 6: inside the window
	)
	right := relation.FromKeys("R",
		"nothing matches this aa", "nothing matches this bb", "nothing matches this cc",
		"nothing matches this dd", "nothing matches this ee", "nothing matches this ff",
		"target location alpha beta", // probes after left ref 6 stored
	)
	cfg := Defaults()
	cfg.RetainWindow = 3
	e := mkEngine(t, cfg, left, right)
	ms := run(t, e)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1 (evicted copy must not match): %v", len(ms), ms)
	}
	if ms[0].LeftRef != 6 {
		t.Errorf("matched left ref %d, want the in-window copy 6", ms[0].LeftRef)
	}
}

func TestWindowEvictsPayloads(t *testing.T) {
	left := relation.New("L", relation.NewSchema("key", "payload"))
	for i := 0; i < 10; i++ {
		left.Append(uniqueKey(i, "LEFT"), "payload-data")
	}
	right := relation.FromKeys("R", "no match here at all")
	cfg := Defaults()
	cfg.RetainWindow = 3
	e := mkEngine(t, cfg, left, right)
	run(t, e)
	// The oldest left tuples must have had their payloads released.
	if got := e.StoredTuple(stream.Left, 0); got.Attrs != nil {
		t.Errorf("evicted tuple kept payload: %+v", got)
	}
	// The last three are live and intact.
	if got := e.StoredTuple(stream.Left, 9); len(got.Attrs) != 1 {
		t.Errorf("live tuple lost payload: %+v", got)
	}
}

func TestWindowWithApproximateMatching(t *testing.T) {
	// The same eviction semantics must hold for the q-gram path.
	left := relation.FromKeys("L",
		"monte rosa vetta alpina", // will be evicted
		"filler uno due tre qua", "filler quattro cinque sei", "filler sette otto nove",
	)
	right := relation.FromKeys("R",
		"zzz yyy xxx www unmatched", "zzz yyy xxx www unmatchee", "zzz yyy xxx www unmatchef",
		"monte rosa vetta alpinx", // variant of the evicted tuple
	)
	cfg := Defaults()
	cfg.RetainWindow = 2
	cfg.Initial = LapRap
	e := mkEngine(t, cfg, left, right)
	ms := run(t, e)
	for _, m := range ms {
		if m.LeftRef == 0 {
			t.Errorf("matched evicted tuple: %+v", m)
		}
	}
}

func TestWindowUnsetRetainsEverything(t *testing.T) {
	left := relation.FromKeys("L", "shared key value here")
	right := relation.New("R", relation.NewSchema("key"))
	for i := 0; i < 50; i++ {
		right.Append(uniqueKey(i, "RIGHT"))
	}
	right.Append("shared key value here")
	e := mkEngine(t, Defaults(), left, right)
	ms := run(t, e)
	if len(ms) != 1 {
		t.Errorf("unbounded engine lost an old match: %d", len(ms))
	}
}

func TestWindowSurvivesSwitches(t *testing.T) {
	// Catch-up after a switch indexes evicted keys too (tombstones);
	// probes must still skip them.
	left := relation.FromKeys("L",
		"monte rosa vetta alpina",
		"filler uno due tre qua", "filler quattro cinque sei",
		"filler sette otto nove", "filler dieci undici dodi",
	)
	right := relation.FromKeys("R",
		"aaa bbb ccc ddd eee fff", "ggg hhh iii jjj kkk lll",
		"mmm nnn ooo ppp qqq rrr", "sss ttt uuu vvv www xyz",
		"monte rosa vetta alpina", // exact text of the evicted left ref 0
	)
	cfg := Defaults()
	cfg.RetainWindow = 2
	e := mkEngine(t, cfg, left, right)
	e.OnStep = func(en *Engine) {
		if en.Step() == 6 {
			en.SetState(LapRap)
		}
	}
	ms := run(t, e)
	for _, m := range ms {
		if m.LeftRef == 0 {
			t.Errorf("post-switch probe matched evicted tuple: %+v", m)
		}
	}
}

func TestEvictBelowHook(t *testing.T) {
	// External drivers (the partition-parallel executor) drive eviction
	// directly against an engine with RetainWindow unset.
	left := relation.FromKeys("L",
		"target location alpha beta", "filler location one xx", "filler location two xx")
	right := relation.FromKeys("R", "target location alpha beta")
	e := mkEngine(t, Defaults(), left, right)
	if err := e.Open(); err != nil {
		t.Fatal(err)
	}
	if err := e.Push(stream.Left, left.At(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.Push(stream.Left, left.At(1)); err != nil {
		t.Fatal(err)
	}
	if n := e.EvictBelow(stream.Left, 1); n != 1 {
		t.Fatalf("EvictBelow evicted %d, want 1", n)
	}
	if got := e.LiveFloor(stream.Left); got != 1 {
		t.Fatalf("LiveFloor = %d, want 1", got)
	}
	// Monotonic: a smaller floor is a no-op.
	if n := e.EvictBelow(stream.Left, 0); n != 0 || e.LiveFloor(stream.Left) != 1 {
		t.Errorf("EvictBelow went backwards: n=%d floor=%d", n, e.LiveFloor(stream.Left))
	}
	// Clamped to the store length.
	if n := e.EvictBelow(stream.Left, 99); n != 1 || e.LiveFloor(stream.Left) != 2 {
		t.Errorf("EvictBelow clamp: n=%d floor=%d, want 1, 2", n, e.LiveFloor(stream.Left))
	}
	// The probing right tuple must not match the evicted left ref 0.
	if err := e.Push(stream.Right, right.At(0)); err != nil {
		t.Fatal(err)
	}
	if ms := e.TakePending(); len(ms) != 0 {
		t.Errorf("probe matched evicted tuples: %v", ms)
	}
	st := e.Stats()
	if st.Evicted[stream.Left] != 2 {
		t.Errorf("Stats.Evicted = %v, want 2 left evictions", st.Evicted)
	}
	e.Close()
}

func TestProbeOnly(t *testing.T) {
	// A probe-only tuple (the partition-parallel executor's offer to a
	// shard that is not the tuple's home) is joined with the stored
	// opposite side under its side's mode, but is neither stored nor a
	// step, and carries ref -1 in its matches.
	left := relation.FromKeys("L", "target location alpha beta")
	right := relation.FromKeys("R", "target location alpha betb", "target location alpha beta")
	for _, state := range []State{LexRex, LapRap} {
		cfg := Defaults()
		cfg.Initial = state
		e := mkEngine(t, cfg, left, right)
		if err := e.ProbeOnly(stream.Right, right.At(0).Key); err == nil {
			t.Fatal("ProbeOnly before Open succeeded")
		}
		if err := e.Open(); err != nil {
			t.Fatal(err)
		}
		if err := e.Push(stream.Left, left.At(0)); err != nil {
			t.Fatal(err)
		}
		before, space := e.Stats(), e.Space()
		// The variant matches approximately only; blame falls on both
		// sides because the stored tuple has no exact partner yet.
		if err := e.ProbeOnly(stream.Right, right.At(0).Key); err != nil {
			t.Fatal(err)
		}
		ms := e.TakePending()
		if state == LexRex && len(ms) != 0 {
			t.Errorf("%v: exact probe-only matched a variant: %v", state, ms)
		}
		if state == LapRap && (len(ms) != 1 || ms[0].LeftRef != 0 || ms[0].RightRef != -1 ||
			ms[0].Exact || ms[0].Attribution != AttrBoth || ms[0].RightKey != right.At(0).Key) {
			t.Errorf("%v: approximate probe-only matches %+v", state, ms)
		}
		// The equal key is found in either mode and flags the stored tuple.
		if err := e.ProbeOnly(stream.Right, right.At(1).Key); err != nil {
			t.Fatal(err)
		}
		ms = e.TakePending()
		if len(ms) != 1 || !ms[0].Exact || ms[0].RightRef != -1 || !e.MatchedFlag(stream.Left, 0) {
			t.Errorf("%v: equal-key probe-only matches %+v, flag %v", state, ms, e.MatchedFlag(stream.Left, 0))
		}
		after := e.Stats()
		if after.Steps != before.Steps || after.Read != before.Read || after.StepsInState != before.StepsInState {
			t.Errorf("%v: probe-only moved the step counters: %+v -> %+v", state, before, after)
		}
		if e.Space() != space {
			t.Errorf("%v: probe-only stored or indexed something: %+v -> %+v", state, space, e.Space())
		}
		e.Close()
	}
}

func TestWindowCompactsIndexes(t *testing.T) {
	// The sequential window drops evicted index entries by amortised
	// compaction, bounding index memory instead of growing a tombstone
	// skeleton with stream length.
	left := relation.New("L", relation.NewSchema("key"))
	for i := 0; i < 60; i++ {
		left.Append(uniqueKey(i, "LEFT"))
	}
	right := relation.FromKeys("R", "no match here at all")
	cfg := Defaults()
	cfg.RetainWindow = 5
	e := mkEngine(t, cfg, left, right)
	run(t, e)
	st := e.Stats()
	if st.Evicted[stream.Left] == 0 {
		t.Fatal("no evictions recorded")
	}
	if st.IndexEntriesDropped == 0 {
		t.Fatal("no index entries dropped")
	}
	sp := e.Space()
	// At most ~2w live-plus-dead exact entries may remain on the left.
	if sp.ExactEntries[stream.Left] > 2*cfg.RetainWindow {
		t.Errorf("exact index kept %d entries, window is %d", sp.ExactEntries[stream.Left], cfg.RetainWindow)
	}
}

func TestCompactEvictedPreservesMatches(t *testing.T) {
	// Compaction must never change the match set: run the windowed
	// approximate scenario with compaction forced at every step and
	// compare against the plain windowed engine.
	mk := func(force bool) []Match {
		left := relation.FromKeys("L",
			"monte rosa vetta alpina", "filler uno due tre qua",
			"filler quattro cinque sei", "monte rosa vetta alpinb")
		right := relation.FromKeys("R",
			"zzz yyy xxx www unmatched", "monte rosa vetta alpinx",
			"monte rosa vetta alpiny", "monte rosa vetta alpinz")
		cfg := Defaults()
		cfg.RetainWindow = 2
		cfg.Initial = LapRap
		e := mkEngine(t, cfg, left, right)
		if force {
			e.OnStep = func(en *Engine) { en.CompactEvicted() }
		}
		return run(t, e)
	}
	plain, forced := mk(false), mk(true)
	if len(plain) != len(forced) {
		t.Fatalf("compaction changed the match set: %d vs %d matches", len(plain), len(forced))
	}
	for i := range plain {
		if plain[i] != forced[i] {
			t.Errorf("match %d differs: %+v vs %+v", i, plain[i], forced[i])
		}
	}
}
