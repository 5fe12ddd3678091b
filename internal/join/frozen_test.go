package join

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
)

// snapKeys lists a shard snapshot's keys by local ref.
func snapKeys(sn *shardSnap) []string {
	keys := make([]string, sn.tuples.Len())
	for lref := range keys {
		keys[lref] = sn.tuples.At(lref).Key
	}
	return keys
}

// renderSnap writes out everything a probe can observe of one shard
// snapshot: its tuples, keys and global refs, the q-gram index's
// export, and for every resident key the exact lookup and the
// approximate probe's verified matches.
func renderSnap(cfg Config, sn *shardSnap) string {
	var out strings.Builder
	keys := snapKeys(sn)
	if sn.qgIdx == nil {
		fmt.Fprintf(&out, "globals %v keys %q unbuilt\n", sn.globals, keys)
	} else {
		fmt.Fprintf(&out, "globals %v keys %q export %v\n", sn.globals, keys, sn.qgIdx.Export())
	}
	var psc hashidx.ProbeScratch
	ex := qgram.New(cfg.Q)
	for lref, key := range keys {
		var approx []RefMatch
		if sn.qgIdx != nil {
			psc.Dec.Reset()
			k := ex.Decompose(&psc.Dec, key)
			g := k.Len()
			approx = snapApproxAppend(nil, sn, cfg, key, k, g, cfg.Measure.MinOverlap(g, cfg.Theta), &psc)
		}
		exact, _ := sn.exIdx.Get(key)
		fmt.Fprintf(&out, "%d %v %v %s | %s\n", lref, sn.tuples.At(lref), exact,
			renderMatches(snapExactAppend(nil, sn, key)), renderMatches(approx))
	}
	return out.String()
}

// TestPublishedSnapshotsStayFrozen pins the other half of structural
// sharing: a published generation shares its arrays, lists and tables
// with every later one, so it must come out of any number of upserts —
// inserts, replacements, enough new keys to fold the shared tables
// several times — exactly as it went in. Every generation of every
// shard is held and compared afterwards; while the writer runs, readers
// keep probing the first generation. Every shard but the last is built
// before the first generation is held; the last is built by an
// approximate probe midway, so its unbuilt generations and the one its
// build publishes are held too. A view exported before the first batch
// shares tuple payloads with those generations: it must come out of the
// upserts as it went in, and still import into the index it described.
func TestPublishedSnapshotsStayFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const shards = 3
	stored, _, _ := diffKeyPool(rng, 90)
	var tuples []relation.Tuple
	for i, k := range stored {
		tuples = append(tuples, relation.Tuple{ID: i, Key: k, Attrs: []string{"v0"}})
	}
	s, err := BuildShardedRefIndex(Defaults(), shards, tuples)
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < shards-1; sh++ {
		s.built(sh)
	}
	type held struct {
		sn    *shardSnap
		state string
	}
	var generations []held
	hold := func() {
		for sh := range s.shards {
			sn := s.shards[sh].Load()
			if n := len(generations); n >= shards && generations[n-shards+sh].sn == sn {
				continue // not republished by the last batch
			}
			generations = append(generations, held{sn, renderSnap(s.cfg, sn)})
		}
	}
	hold()
	first := generations[:shards:shards]
	view, err := s.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	viewState := viewContent(view)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, h := range first {
					if got := renderSnap(s.cfg, h.sn); got != h.state {
						t.Errorf("a reader saw the first generation change under it")
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	fresh := 0
	for round := 0; round < 60; round++ {
		var batch []relation.Tuple
		for n := 1 + rng.Intn(6); n > 0; n-- {
			if rng.Intn(2) == 0 {
				batch = append(batch, relation.Tuple{ID: 1000 + fresh, Key: fmt.Sprintf("borgo nuovo %d interno %d", fresh*7, fresh), Attrs: []string{"new"}})
				fresh++
			} else {
				batch = append(batch, relation.Tuple{ID: round, Key: stored[rng.Intn(len(stored))], Attrs: []string{fmt.Sprintf("v%d", round+1)}})
			}
		}
		s.Upsert(batch)
		if round == 30 {
			s.ProbeApprox(stored[0])
		}
		hold()
	}
	close(stop)
	wg.Wait()
	if fresh < 2*len(stored)/3 {
		t.Fatalf("only %d keys inserted into %d: the shared tables were hardly folded", fresh, len(stored))
	}
	for i, h := range generations {
		if got := renderSnap(s.cfg, h.sn); got != h.state {
			t.Fatalf("held snapshot %d of %d changed after publication\n was %s\n now %s", i, len(generations), h.state, got)
		}
	}
	if viewContent(view) != viewState {
		t.Fatal("a view held across the upserts differs from what it held at export")
	}
	// The view still imports into the index it described.
	loaded, err := gathered(view).load()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := BuildShardedRefIndex(Defaults(), shards, tuples)
	if err != nil {
		t.Fatal(err)
	}
	assertResidentEqual(t, orig, loaded)
}
