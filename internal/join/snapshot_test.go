package join

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/relation"
)

// bulkTuples builds a batch with realistic keys, duplicate keys (the
// last payload must win) and an empty-key edge case.
func bulkTuples(rng *rand.Rand, n int) []relation.Tuple {
	stored, variants, _ := diffKeyPool(rng, n)
	var tuples []relation.Tuple
	for i, k := range append(stored, variants...) {
		tuples = append(tuples, relation.Tuple{ID: i, Key: k, Attrs: []string{fmt.Sprintf("payload-%d", i)}})
	}
	// Duplicate keys with fresh payloads: last wins.
	for i := 0; i < n/3; i++ {
		src := tuples[rng.Intn(len(tuples))]
		tuples = append(tuples, relation.Tuple{ID: 10000 + i, Key: src.Key, Attrs: []string{fmt.Sprintf("replaced-%d", i)}})
	}
	tuples = append(tuples, relation.Tuple{ID: 99999, Key: "", Attrs: []string{"empty-key"}})
	return tuples
}

// distinctKeys keeps the first tuple of each key.
func distinctKeys(tuples []relation.Tuple) []relation.Tuple {
	seen := make(map[string]bool, len(tuples))
	var out []relation.Tuple
	for _, t := range tuples {
		if !seen[t.Key] {
			seen[t.Key] = true
			out = append(out, t)
		}
	}
	return out
}

// TestBulkBuildMatchesUpsert pins the bulk builder to the upsert path:
// for several shard counts, BuildShardedRefIndex must produce an index
// indistinguishable — probe results in both modes, single and batch,
// plus the tuple store, Len and Entries — from NewShardedRefIndex
// followed by one Upsert of the whole batch. A batch that repeats keys
// takes the build's dedup; one that does not is built as it stands.
func TestBulkBuildMatchesUpsert(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			dups := bulkTuples(rng, 80)
			for _, tuples := range [][]relation.Tuple{dups, distinctKeys(dups)} {
				ref, err := NewShardedRefIndex(Defaults(), shards)
				if err != nil {
					t.Fatal(err)
				}
				ref.Upsert(tuples)
				bulk, err := BuildShardedRefIndex(Defaults(), shards, tuples)
				if err != nil {
					t.Fatal(err)
				}
				assertResidentEqual(t, ref, bulk)
				// The bulk-built index must stay a writable index: further
				// upserts and probes behave exactly like the reference's.
				for _, op := range randomOpStream(23, 150) {
					want := applyOp(ref, op)
					got := applyOp(bulk, op)
					if got != want {
						t.Fatalf("post-bulk op %s diverged (%d tuples in)\n got  %s\n want %s", op.kind, len(tuples), got, want)
					}
				}
			}
		})
	}
}

// TestBulkBuildPersistsItsView: Build hands persist the view of what it
// publishes — the export, tuple for tuple and member for member — once
// for a batch of distinct keys and again, deduplicated, for a batch that
// repeats one; a failing persist fails the build.
func TestBulkBuildPersistsItsView(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dups := bulkTuples(rng, 60)
	for _, tc := range []struct {
		tuples []relation.Tuple
		calls  int
	}{{distinctKeys(dups), 1}, {dups, 2}} {
		b, err := NewBulk(Defaults(), 3, tc.tuples)
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		var persisted SnapshotView
		ix, err := b.Build(func(v *SnapshotView) error {
			calls++
			persisted = *v
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ix.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if calls != tc.calls || !reflect.DeepEqual(slices.Collect(persisted.Store()), slices.Collect(want.Store())) || !reflect.DeepEqual(persisted.Shards, want.Shards) || persisted.Cfg != want.Cfg {
			t.Fatalf("%d tuples: persist called %d times (want %d) with a view other than the export", len(tc.tuples), calls, tc.calls)
		}
		b, _ = NewBulk(Defaults(), 3, tc.tuples)
		failed := fmt.Errorf("disk full")
		if _, err := b.Build(func(*SnapshotView) error { return failed }); err != failed {
			t.Fatalf("a failing persist: Build error %v, want %v", err, failed)
		}
	}
}

// TestSnapshotRoundTrip pins export → import to full behavioural
// equality: the imported index answers every probe identically, agrees
// on the store, and keeps working as a writable index afterwards.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			orig, err := BuildShardedRefIndex(Defaults(), shards, bulkTuples(rng, 60))
			if err != nil {
				t.Fatal(err)
			}
			view, err := orig.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := gathered(view).load()
			if err != nil {
				t.Fatal(err)
			}
			assertResidentEqual(t, orig, loaded)
			for _, op := range randomOpStream(31, 200) {
				want := applyOp(orig, op)
				got := applyOp(loaded, op)
				if got != want {
					t.Fatalf("post-import op %s diverged\n got  %s\n want %s", op.kind, got, want)
				}
			}
		})
	}
}

// TestSnapshotImportValidation pins the corruption guards: a stored
// store and member refs that disagree are rejected with errors, never
// loaded. Snapshots carry no q-gram data; the q-gram section a version
// 3 or 4 image stored is validated where the decoder finds it
// (CheckShardSection), so the q-gram cases corrupt such a section — the
// one a built shard exports — and hand it to that check. (The store
// package runs the same store cases through images.)
func TestSnapshotImportValidation(t *testing.T) {
	build := func() (*stored, *ShardedRefIndex) {
		rng := rand.New(rand.NewSource(9))
		ix, err := BuildShardedRefIndex(Defaults(), 2, bulkTuples(rng, 20))
		if err != nil {
			t.Fatal(err)
		}
		v, err := ix.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return gathered(v), ix
	}
	checkSection := func(ix *ShardedRefIndex, corrupt func(qg *hashidx.QGramExport)) error {
		sn := ix.built(0)
		qg := sn.qgIdx.Export()
		corrupt(&qg)
		return CheckShardSection(len(sn.globals), qg.Grams, qg.Sizes, qg.SigFloor, len(qg.Sigs), func(ref int) []uint32 { return qg.Sigs[ref] })
	}
	const dupKey = "duplicate store key"
	cases := []struct {
		name    string
		corrupt func(st *stored)
		section func(qg *hashidx.QGramExport)
	}{
		{name: "shard count mismatch", corrupt: func(st *stored) { st.members = st.members[:1] }},
		{name: "bad config", corrupt: func(st *stored) { st.cfg.Q = 0 }},
		// Two refs of one shard under one key: the second one is a second
		// hit in that shard's exact index. Across shards, the copy sits
		// outside its key's home.
		{name: dupKey, corrupt: func(st *stored) {
			g := st.members[0]
			st.tuples[g[1]].Key = st.tuples[g[0]].Key
		}},
		{name: "duplicate store key across shards", corrupt: func(st *stored) {
			st.tuples[st.members[1][0]].Key = st.tuples[st.members[0][0]].Key
		}},
		{name: "global ref out of range", corrupt: func(st *stored) { st.members[0][0] = uint32(len(st.tuples)) }},
		{name: "globals not ascending", corrupt: func(st *stored) {
			g := st.members[0]
			g[0], g[len(g)-1] = g[len(g)-1], g[0]
		}},
		{name: "key outside its home shard", corrupt: func(st *stored) { st.members[0], st.members[1] = st.members[1], st.members[0] }},
		{name: "shards do not cover the store", corrupt: func(st *stored) {
			st.tuples = append(st.tuples, relation.Tuple{ID: 777, Key: "in the store, in no shard"})
		}},
		// Postings are derived from the signatures, so the only way an
		// image can ask for a posting the shard cannot resolve is a
		// signature past the shard's member list.
		{name: "posting ref out of range", section: func(qg *hashidx.QGramExport) {
			qg.Sigs = append(qg.Sigs[:len(qg.Sigs):len(qg.Sigs)], qg.Sigs[0])
			qg.Sizes = append(qg.Sizes[:len(qg.Sizes):len(qg.Sizes)], qg.Sizes[0])
		}},
		{name: "signature not ascending", section: func(qg *hashidx.QGramExport) {
			for ri, sig := range qg.Sigs {
				if len(sig) > 1 {
					sig = append([]uint32(nil), sig...)
					sig[1] = sig[0]
					qg.Sigs[ri] = sig
					return
				}
			}
		}},
		{name: "duplicate dictionary gram", section: func(qg *hashidx.QGramExport) {
			if len(qg.Grams) >= 2 {
				qg.Grams[1] = qg.Grams[0]
			}
		}},
		{name: "signature count mismatch", section: func(qg *hashidx.QGramExport) {
			qg.Sigs = qg.Sigs[:len(qg.Sigs)-1]
		}},
		{name: "signature gram id out of range", section: func(qg *hashidx.QGramExport) {
			for ri, sig := range qg.Sigs {
				if len(sig) > 0 {
					sig = append([]uint32(nil), sig...)
					sig[0] = uint32(len(qg.Grams))
					qg.Sigs[ri] = sig
					return
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, ix := build()
			if c.section != nil {
				if err := checkSection(ix, c.section); err == nil {
					t.Fatal("corrupted q-gram section passed the check")
				}
				return
			}
			c.corrupt(st)
			_, err := st.load()
			if err == nil {
				t.Fatal("corrupted snapshot loaded without error")
			}
			g := st.members[0]
			if want := fmt.Sprintf("at both ref %d and %d ", g[0], g[1]); c.name == dupKey && !strings.Contains(err.Error(), want) {
				t.Fatalf("rejected with %q, want a message naming both refs: %q", err, want)
			}
		})
	}
	// The pristine store must still load, and the pristine section pass
	// (the corruptions above are what flipped each case to failure).
	st, ix := build()
	if _, err := st.load(); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	if err := checkSection(ix, func(*hashidx.QGramExport) {}); err != nil {
		t.Fatalf("pristine q-gram section rejected: %v", err)
	}
}

// TestSnapshotStoreOnlyViewRepartitions pins the upgrade path of
// snapshots written under another shard layout: a store loaded without
// member refs is partitioned and indexed by the load, and is
// indistinguishable from a bulk build of the same tuples.
func TestSnapshotStoreOnlyViewRepartitions(t *testing.T) {
	for _, shards := range []int{1, 4} {
		orig, err := BuildShardedRefIndex(Defaults(), shards, bulkTuples(rand.New(rand.NewSource(13)), 50))
		if err != nil {
			t.Fatal(err)
		}
		exported, err := orig.ExportSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		st := gathered(exported)
		st.members = nil
		loaded, err := st.load()
		if err != nil {
			t.Fatal(err)
		}
		assertResidentEqual(t, orig, loaded)
		for _, op := range randomOpStream(37, 120) {
			if want, got := applyOp(orig, op), applyOp(loaded, op); got != want {
				t.Fatalf("%d shards: post-import op %s diverged\n got  %s\n want %s", shards, op.kind, got, want)
			}
		}
	}
}

// inspectable is what assertResidentEqual reads beyond the Resident
// contract; the sharded index and its oracle both provide it.
type inspectable interface {
	Resident
	Entries() (exact, qgrams int)
	Tuple(ref int) (relation.Tuple, error)
}

// assertResidentEqual asserts two resident indexes are observationally
// identical: store, entry counts, and probe results over the shared
// differential op stream's key pool in both modes.
func assertResidentEqual(t *testing.T, want, got inspectable) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	wEx, wQG := want.Entries()
	gEx, gQG := got.Entries()
	if wEx != gEx || wQG != gQG {
		t.Fatalf("Entries %d/%d, want %d/%d", gEx, gQG, wEx, wQG)
	}
	for i := 0; i < want.Len(); i++ {
		a, errA := want.Tuple(i)
		b, errB := got.Tuple(i)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("Tuple(%d): %+v (%v), want %+v (%v)", i, b, errB, a, errA)
		}
		for _, mode := range []Mode{Exact, Approx} {
			w := renderMatches(want.Probe(mode, a.Key))
			g := renderMatches(got.Probe(mode, a.Key))
			if w != g {
				t.Fatalf("Probe(%v, %q): %s, want %s", mode, a.Key, g, w)
			}
		}
	}
}

// TestExportSnapshotStore: an exported view walks the index's store in
// ref order — what Tuple answers for refs 0..Len-1 — at every shard
// count — one shard, shards with chunks of their store to cross, and
// more shards than tuples — for a bulk build and for an index grown by
// several upserts; a walk stopped early stops.
func TestExportSnapshotStore(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tuples := bulkTuples(rng, 400)
	for _, shards := range []int{1, 3, 7, 300, 1000} {
		bulk, err := BuildShardedRefIndex(Defaults(), shards, tuples)
		if err != nil {
			t.Fatal(err)
		}
		grown, err := NewShardedRefIndex(Defaults(), shards)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(tuples); lo += 97 {
			grown.Upsert(tuples[lo:min(lo+97, len(tuples))])
		}
		for name, ix := range map[string]*ShardedRefIndex{"bulk": bulk, "grown": grown} {
			want := make([]relation.Tuple, ix.Len())
			for ref := range want {
				if want[ref], err = ix.Tuple(ref); err != nil {
					t.Fatal(err)
				}
			}
			v, err := ix.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			var got []relation.Tuple
			for tu := range v.Store() {
				got = append(got, tu)
			}
			if v.Len() != len(want) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d shards: Store walks %d tuples (Len %d), want the index's %d", name, shards, len(got), v.Len(), len(want))
			}
			walked := 0
			for range v.Store() {
				if walked++; walked == 5 {
					break
				}
			}
			if walked != 5 {
				t.Fatalf("%s, %d shards: a walk stopped at 5 ran to %d", name, shards, walked)
			}
		}
	}
}

// stored is what a snapshot stores, as a load takes it: the tuple
// store in ref order and each shard's member refs.
type stored struct {
	cfg     Config
	nshard  int
	tuples  []relation.Tuple
	members [][]uint32
}

// gathered is what the exported view v stores: its store gathered into
// ref order, its member refs copied, so that a test may edit either.
// This package's tests cannot reach the codec in internal/store, which
// loads the same from an image.
func gathered(v *SnapshotView) *stored {
	st := &stored{cfg: v.Cfg, nshard: v.NShard, tuples: slices.Collect(v.Store())}
	for _, members := range v.Shards {
		st.members = append(st.members, slices.Clone(members))
	}
	return st
}

func (st *stored) load() (*ShardedRefIndex, error) {
	return LoadShardedRefIndex(st.cfg, st.nshard, Tuples(st.tuples), st.members)
}

// viewContent renders everything a view holds: its configuration, its
// store as Store walks it and its member refs.
func viewContent(v *SnapshotView) string {
	return fmt.Sprint(v.Cfg, v.NShard, slices.Collect(v.Store()), v.Shards)
}
