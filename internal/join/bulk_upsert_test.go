package join_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/store"
)

// bulkUpsertRows is a batch over the street vocabulary that repeats
// keys — its first key again at the end, with a new payload — and holds
// an empty key and non-ASCII keys, each of those twice.
func bulkUpsertRows(seed int64, n int) []relation.Tuple {
	rows := lazyCodecTuples(rand.New(rand.NewSource(seed)), n, 0)
	for i, k := range []string{"", "FORLÌ CITTÀ", "東京都 千代田区", "ΑΘΗΝΑ ΟΔΟΣ 3", "", "FORLÌ CITTÀ", rows[0].Key} {
		rows = append(rows, relation.Tuple{ID: n + i, Key: k, Attrs: []string{fmt.Sprintf("extra-%d", i)}})
	}
	return rows
}

// renderExact is every row key's and a variant's exact probe answer.
func renderExact(ix *join.ShardedRefIndex, rows []relation.Tuple) string {
	out := ""
	for _, t := range rows {
		for _, k := range []string{t.Key, t.Key + "X"} {
			out += fmt.Sprintf("%q %v\n", k, ix.ProbeExact(k))
		}
	}
	return out
}

// sameMembers reports whether two exports list the same member refs per
// shard (an empty shard's list may be nil in one and empty in the other).
func sameMembers(a, b []join.ShardExport) bool {
	if len(a) != len(b) {
		return false
	}
	for sh := range a {
		if !slices.Equal(a[sh].Globals, b[sh].Globals) {
			return false
		}
	}
	return true
}

// An upsert into a fresh index is a bulk load. It must leave the index
// an upsert of the same rows leaves when it takes the per-tuple path —
// into an empty index whose shards one approximate probe has built:
// the same counts, refs and stores, exact tables and digest, and once a
// probe has built the bulk-loaded shards too, the same postings. The
// bulk load logs its batch once, counts one upsert and one snapshot
// swap per shard, and builds no shard.
func TestBulkUpsertMatchesPerTupleUpsert(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, n := range []int{1, 40, 500} {
			rows := bulkUpsertRows(int64(n), n)
			bulk, err := join.NewShardedRefIndex(join.Defaults(), shards)
			if err != nil {
				t.Fatal(err)
			}
			per, err := join.NewShardedRefIndex(join.Defaults(), shards)
			if err != nil {
				t.Fatal(err)
			}
			per.ProbeApprox(rows[0].Key)
			// The batch repeats a key, so the load builds twice; it logs
			// once.
			logs := 0
			bi, bu, _ := bulk.UpsertLogged(rows, func() error { logs++; return nil })
			pi, pu, _ := per.Upsert(rows)
			what := fmt.Sprintf("%d shards, %d rows", shards, len(rows))
			if logs != 1 {
				t.Fatalf("%s: the bulk load logged its batch %d times", what, logs)
			}
			if bi != pi || bu != pu || bulk.Len() != per.Len() {
				t.Fatalf("%s: bulk load %d inserted %d updated (Len %d), per-tuple %d/%d (Len %d)", what, bi, bu, bulk.Len(), pi, pu, per.Len())
			}
			ms := bulk.MaintStats()
			if ms.Upserts != 1 || ms.SnapshotSwaps != uint64(shards) || ms.BuiltShards != 0 ||
				ms.ScratchGets == 0 || ms.ScratchNews > ms.ScratchGets {
				t.Fatalf("%s: bulk load counters %+v, want 1 upsert, %d swaps, no built shard, gets >= misses > 0", what, ms, shards)
			}
			if built := per.MaintStats().BuiltShards; built != shards {
				t.Fatalf("%s: the per-tuple twin has %d built shards", what, built)
			}
			bv, err := bulk.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			pv, err := per.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			bs, ps := slices.Collect(bv.Store()), slices.Collect(pv.Store())
			if !reflect.DeepEqual(bs, ps) || !sameMembers(bv.Shards, pv.Shards) {
				t.Fatalf("%s: stores or member refs differ\n bulk %v %v\n per  %v %v", what, bs, bv.Shards, ps, pv.Shards)
			}
			if bd, pd := store.DigestView(bv), store.DigestView(pv); !reflect.DeepEqual(bd, pd) {
				t.Fatalf("%s: digest %+v, per-tuple %+v", what, bd, pd)
			}
			if b, p := renderExact(bulk, rows), renderExact(per, rows); b != p {
				t.Fatalf("%s: exact probes differ\n bulk %s\n per  %s", what, b, p)
			}
			bulk.ProbeApprox(rows[0].Key)
			if b, p := bulk.RenderShards(), per.RenderShards(); b != p {
				t.Fatalf("%s: built shards differ\n bulk %s\n per  %s", what, b, p)
			}
		}
	}
}

// TestBulkUpsertRacesBuild: an upsert into a fresh index races the
// first approximate probes and single-shard builds, so it finds the
// index empty and unbuilt (a bulk load) or finds a shard built (the
// per-tuple path), and a build may start before the load publishes and
// catch up after it. Whichever way it goes, once every shard is built
// the index is the one the per-tuple path leaves, and a probe in flight
// never sees a payload the batch does not end with for its key.
func TestBulkUpsertRacesBuild(t *testing.T) {
	rows := bulkUpsertRows(3, 300)
	last := make(map[string]relation.Tuple, len(rows))
	for _, r := range rows {
		last[r.Key] = r
	}
	for _, shards := range []int{2, 4} {
		ref, err := join.NewShardedRefIndex(join.Defaults(), shards)
		if err != nil {
			t.Fatal(err)
		}
		ref.ProbeApprox(rows[0].Key)
		ref.Upsert(rows)
		want := ref.RenderShards()
		for trial := 0; trial < 20; trial++ {
			s, err := join.NewShardedRefIndex(join.Defaults(), shards)
			if err != nil {
				t.Fatal(err)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			// Two trials in three hold the builds and probes back, so the
			// upsert finds the index unbuilt more often.
			run := func(hold int, fn func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for range hold {
						runtime.Gosched()
					}
					fn()
				}()
			}
			run(0, func() { s.Upsert(rows) })
			for sh := trial % 2; sh < shards; sh += 2 {
				run(trial%3*60, func() { s.BuildShard(sh) })
			}
			run(trial%3*60, func() {
				for i := 0; i < 30; i++ {
					k := rows[(trial+i*7)%len(rows)].Key
					for _, m := range append(s.ProbeApprox(k), s.ProbeExact(k)...) {
						if !reflect.DeepEqual(m.Tuple, last[m.Tuple.Key]) {
							t.Errorf("probe of %q saw %+v, want the batch's last %+v", k, m.Tuple, last[m.Tuple.Key])
						}
					}
				}
			})
			close(start)
			wg.Wait()
			s.ProbeApprox(rows[0].Key)
			if got := s.RenderShards(); got != want {
				t.Fatalf("%d shards, trial %d: the raced upsert left\n%s\nwant\n%s", shards, trial, got, want)
			}
		}
	}
}
