package join_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/store"
)

// lazyCodecTuples draws n reference tuples over a small street
// vocabulary, so keys share grams across shards and near-duplicates
// exist for the approximate probes to find.
func lazyCodecTuples(rng *rand.Rand, n, idBase int) []relation.Tuple {
	streets := []string{"VIA MONTE BIANCO", "VIA MONTE BIANCA", "LAGO DI COMO EST", "PIAZZA DUOMO", "CORSO GARIBALDI", "VICOLO STRETTO"}
	out := make([]relation.Tuple, n)
	for i := range out {
		key := fmt.Sprintf("%s %d", streets[rng.Intn(len(streets))], rng.Intn(3*n+1))
		out[i] = relation.Tuple{ID: idBase + i, Key: key, Attrs: []string{fmt.Sprintf("p%d", idBase+i)}}
	}
	return out
}

// snapshotImage encodes the index's current export.
func snapshotImage(t *testing.T, ix *join.ShardedRefIndex) []byte {
	t.Helper()
	v, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restampV1 turns an empty-profile image of the fixed-width layout
// (versions 3 to 5) into the version-1 image of the same store: the
// header and store section are identical, so only the version word and
// the checksum change.
func restampV1(img []byte) []byte {
	v1 := bytes.Clone(img)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	body := v1[:len(v1)-4]
	binary.LittleEndian.PutUint32(v1[len(v1)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return v1
}

// loadImage opens a snapshot image as a resident index.
func loadImage(t *testing.T, img []byte) *join.ShardedRefIndex {
	t.Helper()
	ix, err := store.DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestLazyBuildCodecDifferential holds a lazily built index to an
// eagerly built twin over random upsert histories, starting from
// snapshot images of every version: the v2 to v5 fixtures of the store
// package, the v5 one re-stamped as v1, and bulk loads encoded here in
// the current version. The eager twin
// builds every shard on load, so each upsert maintains its q-gram
// structures; the lazy one builds single shards at random points and
// leaves the rest to the final probes. After every batch the two must
// encode to the same snapshot bytes and digest identically — with the
// digest's section memo, and without it (a resolved view carries none)
// — and at the end answer every key and a variant of it identically in
// both probe modes.
func TestLazyBuildCodecDifferential(t *testing.T) {
	const shards = 4
	bulk := func(seed int64) func(t *testing.T) []byte {
		return func(t *testing.T) []byte {
			ix, err := join.BuildShardedRefIndex(join.Defaults(), shards, lazyCodecTuples(rand.New(rand.NewSource(seed)), 120, 0))
			if err != nil {
				t.Fatal(err)
			}
			return snapshotImage(t, ix)
		}
	}
	fixture := func(path string) func(t *testing.T) []byte {
		return func(t *testing.T) []byte {
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return img
		}
	}
	sources := []struct {
		name string
		img  func(t *testing.T) []byte
	}{
		{"v1", func(t *testing.T) []byte {
			return restampV1(fixture("../store/testdata/v5_partitioned_4shards.snap")(t))
		}},
		{"v2", fixture("../store/testdata/v2_replicated_4shards.snap")},
		{"v3", fixture("../store/testdata/v3_partitioned_4shards.snap")},
		{"v4", fixture("../store/testdata/v4_partitioned_4shards.snap")},
		{"v5", fixture("../store/testdata/v5_partitioned_4shards.snap")},
		{"v6", bulk(12)},
	}
	for _, src := range sources {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", src.name, seed), func(t *testing.T) {
				img := src.img(t)
				lazy, eager := loadImage(t, img), loadImage(t, img)
				for sh := range eager.Shards() {
					eager.BuildShard(sh)
				}
				rng := rand.New(rand.NewSource(seed))
				for b := 0; b < 12; b++ {
					batch := lazyCodecTuples(rng, 1+rng.Intn(8), 100*(b+1))
					if n := lazy.Len(); n > 0 && rng.Intn(2) == 0 {
						old, _ := lazy.Tuple(rng.Intn(n))
						batch = append(batch, relation.Tuple{ID: old.ID, Key: old.Key, Attrs: []string{"replaced"}})
					}
					lazy.Upsert(batch)
					eager.Upsert(batch)
					if rng.Intn(3) == 0 {
						lazy.BuildShard(rng.Intn(shards))
					}
					assertSameEncoding(t, fmt.Sprintf("batch %d", b), lazy, eager)
				}
				for i := 0; i < eager.Len(); i++ {
					tp, _ := eager.Tuple(i)
					for _, key := range []string{tp.Key, tp.Key + "X"} {
						for _, mode := range []join.Mode{join.Exact, join.Approx} {
							if got, want := fmt.Sprint(lazy.Probe(mode, key)), fmt.Sprint(eager.Probe(mode, key)); got != want {
								t.Fatalf("Probe(%v, %q) = %s, eagerly built %s", mode, key, got, want)
							}
						}
					}
				}
				assertSameEncoding(t, "after the probes", lazy, eager)
			})
		}
	}
}

// assertSameEncoding holds two indexes to identical snapshot bytes and
// digests, memoised and recomputed.
func assertSameEncoding(t *testing.T, when string, lazy, eager *join.ShardedRefIndex) {
	t.Helper()
	if !bytes.Equal(snapshotImage(t, lazy), snapshotImage(t, eager)) {
		t.Fatalf("%s: snapshot bytes differ from the eagerly built index's", when)
	}
	var digests []store.ContentDigest
	for _, ix := range []*join.ShardedRefIndex{lazy, eager} {
		for _, resolve := range []bool{false, true} {
			v, err := ix.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if resolve {
				v = v.Resolve()
			}
			digests = append(digests, store.DigestView(v))
		}
	}
	for _, d := range digests[1:] {
		if !reflect.DeepEqual(d, digests[0]) {
			t.Fatalf("%s: digests differ (lazy memoised, lazy recomputed, eager memoised, eager recomputed): %+v", when, digests)
		}
	}
}
