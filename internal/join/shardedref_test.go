package join

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivelink/internal/relation"
)

func newTestShardedRef(t *testing.T, shards int, keys ...string) *ShardedRefIndex {
	t.Helper()
	s, err := NewShardedRefIndex(Defaults(), shards)
	if err != nil {
		t.Fatalf("NewShardedRefIndex: %v", err)
	}
	ts := make([]relation.Tuple, len(keys))
	for i, k := range keys {
		ts[i] = relation.Tuple{ID: i, Key: k, Attrs: []string{fmt.Sprintf("p%d", i)}}
	}
	s.Upsert(ts)
	return s
}

// TestShardedRefConcurrentProbesAndUpserts exercises the RCU discipline
// under the race detector: many probers (single and batch, both modes)
// share the index while a maintainer swaps snapshots; GOMAXPROCS is
// raised so the batch path's shard-group fan-out actually runs
// concurrently.
func TestShardedRefConcurrentProbesAndUpserts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := newTestShardedRef(t, 4, "via monte bianco nord 12", "lago di como est", "valle verde ovest")
	probes := []string{"via monte bianco nord 12", "via monte bianca nord 12", "lago di como est", "no such key"}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]string, 0, 4*batchFanMin)
			for len(batch) < 4*batchFanMin {
				batch = append(batch, probes...)
			}
			for i := 0; i < 100; i++ {
				key := probes[(i+p)%len(probes)]
				s.ProbeExact(key)
				s.ProbeApprox(key)
				s.ProbeBatch(Exact, batch)
				s.ProbeBatch(Approx, batch)
				s.Len()
				s.Entries()
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Upsert([]relation.Tuple{
				{ID: 100 + i, Key: fmt.Sprintf("upserted street %d", i)},
				{ID: 200 + i, Key: "via monte bianco nord 12", Attrs: []string{fmt.Sprintf("v%d", i)}},
			})
		}
	}()
	wg.Wait()
	if got := s.Len(); got != 53 {
		t.Fatalf("Len after concurrent upserts = %d, want 53", got)
	}
}

// TestShardedProbePathAcquiresNoMutexes is the lock-freedom assertion
// of the probe hot path: with mutex profiling at full sampling, heavy
// concurrent probe traffic racing upserts into built shards must
// contribute zero contention events locked by this package under any
// probe-path function. A deliberately contended control mutex proves the profile
// machinery is capturing.
//
// Only contention whose locking frame — the caller of Lock/Unlock — is
// in package join counts. The pooled scratch is kept (per-P caches are
// what lets the probe fleet scale), and sync.Pool re-registers itself
// under the runtime's global pool mutex on its first use by a P after
// every GC cycle (sync.(*Pool).pinSlow); on two or more cores two
// probers can meet there. That is the runtime's lock, taken once per P
// per GC cycle and not per probe, so it is not what "lock-free probe
// path" promises — but it did make the old any-frame assertion fail
// intermittently on every multi-core host.
func TestShardedProbePathAcquiresNoMutexes(t *testing.T) {
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	// Positive control: force one recorded contention event so an empty
	// probe result below cannot be an artifact of profiling being off.
	var control sync.Mutex
	control.Lock()
	done := make(chan struct{})
	go func() {
		control.Lock() // blocks until the holder releases
		control.Unlock()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	control.Unlock()
	<-done

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s := newTestShardedRef(t, 4, "via monte bianco nord 12", "lago di como est", "valle verde ovest")
	s.ProbeApprox("") // build every shard: approximate probes are lock-free from here
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			keys := []string{"via monte bianco nord 12", "via monte bianca nord 12", "lago di como est", "missing key"}
			batch := append(append(append([]string(nil), keys...), keys...), keys...)
			for i := 0; i < 300; i++ {
				k := keys[(i+p)%len(keys)]
				s.ProbeExact(k)
				s.ProbeApprox(k)
				s.ProbeBatch(Exact, batch)
				s.ProbeBatch(Approx, batch)
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			s.Upsert([]relation.Tuple{{ID: i, Key: fmt.Sprintf("churn street %d", i)}})
		}
	}()
	wg.Wait()

	prof := pprof.Lookup("mutex")
	if prof == nil {
		t.Fatal("mutex profile unavailable")
	}
	var buf bytes.Buffer
	if err := prof.WriteTo(&buf, 1); err != nil {
		t.Fatalf("writing mutex profile: %v", err)
	}
	text := buf.String()
	if !strings.Contains(text, "TestShardedProbePathAcquiresNoMutexes") {
		t.Fatalf("positive-control contention missing from mutex profile:\n%s", text)
	}
	// The writer mutex (Upsert) may legitimately appear; a stack through
	// a probe-path frame whose lock was taken by this package may not.
	for _, stack := range strings.Split(text, "\n\n") {
		onProbePath := false
		for _, frame := range []string{
			"ShardedRefIndex).Probe",
			"ShardedRefIndex).AppendProbe",
			"ShardedRefIndex).probe",
			"ShardedRefIndex).forShards",
			"join.snapApprox",
			"join.snapExact",
		} {
			onProbePath = onProbePath || strings.Contains(stack, frame)
		}
		if onProbePath && strings.Contains(lockingFrame(stack), "adaptivelink/internal/join.") {
			t.Errorf("probe path contended on a mutex of this package:\n%s", stack)
		}
	}
}

// lockingFrame returns the function of a mutex-profile stack (debug=1
// text) that called Lock/Unlock: the innermost frame that is not a
// mutex method or the runtime.
func lockingFrame(stack string) string {
	for _, line := range strings.Split(stack, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[0] != "#" {
			continue
		}
		fn := fields[2]
		if strings.HasPrefix(fn, "sync.(*Mutex).") || strings.HasPrefix(fn, "sync.(*RWMutex).") ||
			strings.HasPrefix(fn, "internal/sync.") || strings.HasPrefix(fn, "runtime.") {
			continue
		}
		return fn
	}
	return ""
}

// TestShardedRefBatchMatchesSingleProbes pins ProbeBatch to its
// definitional semantics on the sharded implementation directly (the
// differential harness pins it against the reference implementation).
func TestShardedRefBatchMatchesSingleProbes(t *testing.T) {
	s := newTestShardedRef(t, 4,
		"via monte bianco nord 12", "lago di como est", "valle verde ovest", "piazza duomo 1")
	keys := []string{
		"via monte bianco nord 12", "via monte bianca nord 12", "piazza duomo 1",
		"lago di como est", "absent key", "valle verde ovest",
	}
	for _, mode := range []Mode{Exact, Approx} {
		got := s.ProbeBatch(mode, keys)
		if len(got) != len(keys) {
			t.Fatalf("mode %v: %d results for %d keys", mode, len(got), len(keys))
		}
		for i, k := range keys {
			want := s.Probe(mode, k)
			if renderMatches(got[i]) != renderMatches(want) {
				t.Errorf("mode %v key %q: batch %s, single %s", mode, k, renderMatches(got[i]), renderMatches(want))
			}
		}
	}
}

// TestShardedRefGlobalStoreChunking crosses the chunk boundaries of
// the shards' tuple vectors: inserts spanning several chunks, payload
// updates in early, middle and tail chunks, and Tuple/Len agreement
// throughout.
func TestShardedRefGlobalStoreChunking(t *testing.T) {
	s, err := NewShardedRefIndex(Defaults(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// A span that is not a multiple of the tuple vectors' 64-slot chunks,
	// whichever way the keys hash: full chunks and a partly filled tail.
	const storeChunkSize = 1024
	const total = 2*storeChunkSize + 137
	for lo := 0; lo < total; lo += 500 {
		hi := lo + 500
		if hi > total {
			hi = total
		}
		batch := make([]relation.Tuple, 0, hi-lo)
		for i := lo; i < hi; i++ {
			batch = append(batch, relation.Tuple{ID: i, Key: fmt.Sprintf("street %d alpha", i), Attrs: []string{"v0"}})
		}
		if ins, upd, _ := s.Upsert(batch); ins != hi-lo || upd != 0 {
			t.Fatalf("batch [%d,%d): %d/%d", lo, hi, ins, upd)
		}
	}
	if s.Len() != total {
		t.Fatalf("Len = %d, want %d", s.Len(), total)
	}
	// Update one key per chunk region; only those payloads change.
	updates := []int{3, storeChunkSize + 9, 2*storeChunkSize + 100}
	batch := make([]relation.Tuple, len(updates))
	for i, ref := range updates {
		batch[i] = relation.Tuple{ID: ref, Key: fmt.Sprintf("street %d alpha", ref), Attrs: []string{"v1"}}
	}
	if ins, upd, _ := s.Upsert(batch); ins != 0 || upd != len(updates) {
		t.Fatalf("update batch: %d/%d", ins, upd)
	}
	for ref := 0; ref < total; ref += 97 {
		tp, err := s.Tuple(ref)
		if err != nil {
			t.Fatalf("Tuple(%d): %v", ref, err)
		}
		want := "v0"
		for _, u := range updates {
			if u == ref {
				want = "v1"
			}
		}
		if tp.ID != ref || tp.Attrs[0] != want {
			t.Fatalf("Tuple(%d) = %+v, want ID %d attrs [%s]", ref, tp, ref, want)
		}
	}
	for _, ref := range updates {
		if tp, _ := s.Tuple(ref); tp.Attrs[0] != "v1" {
			t.Fatalf("updated Tuple(%d) = %+v", ref, tp)
		}
		// The probe path serves the updated payload too.
		ms := s.ProbeExact(fmt.Sprintf("street %d alpha", ref))
		if len(ms) != 1 || ms[0].Tuple.ID != ref || ms[0].Tuple.Attrs[0] != "v1" {
			t.Fatalf("probe of updated key %d = %+v", ref, ms)
		}
	}
}

// TestShardedRefTupleResolvesEveryRef pins Tuple, which has no store of
// its own to index: after interleaved inserts and replacements on a
// 4-shard index it answers every ref in [0, Len) with the key first
// seen under that ref and the payload last written to it, and errors
// on either side of the range.
func TestShardedRefTupleResolvesEveryRef(t *testing.T) {
	s, err := NewShardedRefIndex(Defaults(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	var want []relation.Tuple // by global ref
	for round := 0; round < 120; round++ {
		var batch []relation.Tuple
		for n := 1 + rng.Intn(8); n > 0; n-- {
			if len(want) > 0 && rng.Intn(3) == 0 {
				ref := rng.Intn(len(want))
				want[ref] = relation.Tuple{ID: round, Key: want[ref].Key, Attrs: []string{fmt.Sprintf("v%d", round)}}
				batch = append(batch, want[ref])
				continue
			}
			tp := relation.Tuple{ID: len(want), Key: fmt.Sprintf("corso %d scala %d", len(want)*13, len(want)), Attrs: []string{"v0"}}
			want = append(want, tp)
			batch = append(batch, tp)
		}
		s.Upsert(batch)
		if s.Len() != len(want) {
			t.Fatalf("round %d: Len = %d, want %d", round, s.Len(), len(want))
		}
	}
	for ref, w := range want {
		if got, err := s.Tuple(ref); err != nil || !reflect.DeepEqual(got, w) {
			t.Fatalf("Tuple(%d) = %+v (%v), want %+v", ref, got, err, w)
		}
	}
	for _, ref := range []int{-1, s.Len(), s.Len() + 5} {
		if got, err := s.Tuple(ref); err == nil {
			t.Fatalf("Tuple(%d) outside [0, %d) answered %+v", ref, s.Len(), got)
		}
	}
}
