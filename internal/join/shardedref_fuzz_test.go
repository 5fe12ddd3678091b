package join

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"adaptivelink/internal/relation"
)

// FuzzUpsertProbe hammers one property of the RCU snapshot discipline:
// concurrent upserts racing probes must never yield a torn read. Every
// payload is self-certifying — Attrs[1] repeats "key#version" — so a
// probe that observed a half-applied update (old version paired with
// new payload, or a tuple mid-copy) fails verification. Probes must
// also never see a key twice in one result (replica dedup) and, within
// one prober goroutine, never see a key's version move backwards
// (snapshots are published in order).
//
// The upper bits of the shard byte add that many never-seen keys to
// every batch, so the writer also grows the shared arrays and folds the
// shared key and gram tables while the probers read older generations
// of them. The q-gram structures are built lazily at seed-chosen
// points: each prober probes exactly for a while before its first
// approximate probe, and one more goroutine builds single shards in a
// random order, so builds and their catch-up race the writer. Afterwards every
// key must answer, exactly and approximately, with its last version.
//
// A short run is wired into `make fuzz` (and CI); `go test -fuzz` digs
// deeper.
func FuzzUpsertProbe(f *testing.F) {
	f.Add(int64(1), uint8(2), "via monte bianco nord")
	f.Add(int64(7), uint8(4), "lago di como est")
	f.Add(int64(42), uint8(1), "x")
	f.Add(int64(-3), uint8(9), "piazza duomo è bella")
	f.Add(int64(5), uint8(0xFF), "borgo santa lucia") // 63 new keys a batch: crosses many folds
	// The first batch lands on the empty index, a bulk load, here of keys
	// that differ only in their digits, into four shards.
	f.Add(int64(11), uint8(3), "")
	f.Fuzz(func(t *testing.T, seed int64, shardsRaw uint8, keyBase string) {
		shards, freshPerBatch := int(shardsRaw%4)+1, int(shardsRaw>>2)
		rng := rand.New(rand.NewSource(seed))
		s, err := NewShardedRefIndex(Defaults(), shards)
		if err != nil {
			t.Fatalf("NewShardedRefIndex: %v", err)
		}
		keys := make([]string, 8)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s %d %d", keyBase, rng.Intn(100), i)
		}
		payload := func(key string, version int) relation.Tuple {
			return relation.Tuple{
				ID:    version,
				Key:   key,
				Attrs: []string{strconv.Itoa(version), key + "#" + strconv.Itoa(version)},
			}
		}
		seed0 := make([]relation.Tuple, len(keys))
		for i, k := range keys {
			seed0[i] = payload(k, 0)
		}
		s.Upsert(seed0)

		verify := func(where string, probed string, ms []RefMatch) {
			seen := make(map[string]bool, len(ms))
			for _, m := range ms {
				if seen[m.Ref.Key] {
					t.Errorf("%s %q: key %q reported twice (replica leak): %v", where, probed, m.Ref.Key, ms)
				}
				seen[m.Ref.Key] = true
				if len(m.Ref.Attrs) != 2 || m.Ref.Attrs[1] != m.Ref.Key+"#"+m.Ref.Attrs[0] {
					t.Errorf("%s %q: torn payload %+v", where, probed, m.Ref)
				}
			}
		}

		const versions = 25
		last := make(map[string]int) // the writer's: key -> last version upserted
		for _, k := range keys {
			last[k] = 0
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			upRng := rand.New(rand.NewSource(seed ^ 0x5eed))
			for v := 1; v <= versions; v++ {
				batch := []relation.Tuple{
					payload(keys[upRng.Intn(len(keys))], v),
					payload(keys[upRng.Intn(len(keys))], v),
				}
				for i := 0; i < freshPerBatch; i++ {
					batch = append(batch, payload(fmt.Sprintf("%s %d new %d", keyBase, v, i), v))
				}
				s.Upsert(batch)
				for _, t := range batch {
					last[t.Key] = v
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			bRng := rand.New(rand.NewSource(seed ^ 0xb1d))
			for _, sh := range bRng.Perm(shards) {
				for n := bRng.Intn(300); n > 0; n-- {
					runtime.Gosched()
				}
				s.built(sh)
			}
		}()
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				pRng := rand.New(rand.NewSource(seed + int64(p)))
				firstApprox := pRng.Intn(120)
				lastVersion := make(map[string]int)
				for i := 0; i < 120; i++ {
					k := keys[pRng.Intn(len(keys))]
					var ms []RefMatch
					if i < firstApprox || pRng.Intn(2) == 0 {
						ms = s.ProbeExact(k)
						verify("exact", k, ms)
						for _, m := range ms {
							v, err := strconv.Atoi(m.Ref.Attrs[0])
							if err != nil {
								t.Errorf("exact %q: bad version %+v", k, m.Ref)
								continue
							}
							if v < lastVersion[m.Ref.Key] {
								t.Errorf("exact %q: version went backwards %d -> %d", k, lastVersion[m.Ref.Key], v)
							}
							lastVersion[m.Ref.Key] = v
						}
					} else {
						verify("approx", k, s.ProbeApprox(k))
					}
				}
			}(p)
		}
		wg.Wait()
		if ms := s.MaintStats(); ms.QGramBuilds != uint64(shards) {
			t.Fatalf("%d q-gram builds for %d shards", ms.QGramBuilds, shards)
		}
		for k, v := range last {
			for _, mode := range []Mode{Exact, Approx} {
				found := false
				for _, m := range s.Probe(mode, k) {
					if m.Ref.Key == k {
						found = m.Exact && m.Ref.ID == v
					}
				}
				if !found {
					t.Fatalf("%v probe of %q misses its last version %d", mode, k, v)
				}
			}
		}
	})
}
