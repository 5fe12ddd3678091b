package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"adaptivelink/internal/relation"
)

// withIndexLocked runs fn while the test holds every mutex of the index
// — the writer lock and each shard's building lock — and fails unless
// fn completes meanwhile: whatever fn probes takes none of them.
func withIndexLocked(t *testing.T, s *ShardedRefIndex, what string, fn func()) {
	t.Helper()
	s.mu.Lock()
	for i := range s.building {
		s.building[i].Lock()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Errorf("%s blocked on a mutex of the index", what)
	}
	for i := range s.building {
		s.building[i].Unlock()
	}
	s.mu.Unlock()
	<-done
}

// TestLazyBuildRacesUpserts races the first approximate probes into an
// unbuilt index against one another, against exact probes and against
// a writer. Every shard must be built exactly once; no upsert may be
// lost, from the store or from the q-gram structures a build caught up
// with; no published generation may be written again (the frozen-
// generation panic would abort the run); and the index must end up
// equal — view, entries, answers — to one whose shards were built
// before its first tuple. Exact probes into unbuilt shards, and
// approximate probes into built ones, must complete while every mutex
// of the index is held.
func TestLazyBuildRacesUpserts(t *testing.T) {
	const shards = 4
	rng := rand.New(rand.NewSource(5))
	stored, variants, _ := diffKeyPool(rng, 400)
	var tuples []relation.Tuple
	for i, k := range stored {
		tuples = append(tuples, relation.Tuple{ID: i, Key: k, Attrs: []string{"v0"}})
	}
	s, err := BuildShardedRefIndex(Defaults(), shards, tuples)
	if err != nil {
		t.Fatal(err)
	}
	withIndexLocked(t, s, "an exact probe into unbuilt shards", func() {
		for _, k := range stored[:20] {
			if len(s.ProbeExact(k)) != 1 {
				t.Errorf("stored key %q not found", k)
			}
		}
		s.ProbeBatch(Exact, stored[:40])
	})
	if ms := s.MaintStats(); ms.BuiltShards != 0 || ms.QGramBuilds != 0 {
		t.Fatalf("exact probes built shards: %+v", ms)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				s.ProbeApprox(variants[(i*7+p)%len(variants)])
				if i%8 == p {
					s.ProbeBatch(Approx, variants[i:i+batchFanMin])
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 400; i++ {
			if k := stored[i%len(stored)]; len(s.ProbeExact(k)) != 1 {
				t.Errorf("stored key %q not found mid-run", k)
				return
			}
		}
	}()
	var batches [][]relation.Tuple
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		wrng := rand.New(rand.NewSource(6))
		for b := 0; b < 60; b++ {
			batch := []relation.Tuple{{ID: 1000 + b, Key: stored[wrng.Intn(len(stored))], Attrs: []string{fmt.Sprintf("v%d", b+1)}}}
			for j := 0; j < 3; j++ {
				batch = append(batch, relation.Tuple{ID: 2000 + 3*b + j, Key: fmt.Sprintf("borgo nuovo %d interno %d", b, j), Attrs: []string{"new"}})
			}
			s.Upsert(batch)
			batches = append(batches, batch)
		}
	}()
	close(start)
	wg.Wait()

	if ms := s.MaintStats(); ms.QGramBuilds != shards || ms.BuiltShards != shards || ms.QGramBuildKeys > uint64(s.Len()) {
		t.Fatalf("after racing first probes: %+v, want exactly %d builds of at most %d keys", ms, shards, s.Len())
	}
	eager, err := NewShardedRefIndex(Defaults(), shards)
	if err != nil {
		t.Fatal(err)
	}
	eager.ProbeApprox("") // every shard built while empty: maintained by each upsert
	eager.Upsert(tuples)
	for _, b := range batches {
		eager.Upsert(b)
	}
	lazyView, _ := s.ExportSnapshot()
	eagerView, _ := eager.ExportSnapshot()
	if !reflect.DeepEqual(lazyView, eagerView) {
		t.Fatal("lazily built index exports differently from the eagerly maintained one")
	}
	for sh := range shards {
		if !reflect.DeepEqual(s.built(sh).qgIdx.ExportCompacted(), eager.built(sh).qgIdx.ExportCompacted()) {
			t.Fatalf("shard %d: lazily built q-gram index differs from the eagerly maintained one", sh)
		}
	}
	if a, b := fmt.Sprint(s.Entries()), fmt.Sprint(eager.Entries()); a != b {
		t.Fatalf("Entries %s, eagerly maintained %s", a, b)
	}
	for i := 0; i < eager.Len(); i++ {
		tp, _ := eager.Tuple(i)
		for _, mode := range []Mode{Exact, Approx} {
			if got, want := renderMatches(s.Probe(mode, tp.Key)), renderMatches(eager.Probe(mode, tp.Key)); got != want {
				t.Fatalf("Probe(%v, %q) = %s, eagerly maintained %s", mode, tp.Key, got, want)
			}
		}
	}
	withIndexLocked(t, s, "an approximate probe into built shards", func() {
		s.ProbeApprox(variants[0])
		s.ProbeBatch(Approx, variants[:2*batchFanMin])
	})
}
