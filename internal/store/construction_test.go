package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"adaptivelink/internal/join"
)

// reseal rewrites an image's version word and trailing checksum.
func reseal(img []byte, version uint32) []byte {
	out := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(out[len(snapMagic):], version)
	return fixCRC(out)
}

// fixedWidthImage encodes v in the fixed-width layout versions 3 to 5
// stored — the header, then the canonical content stream DigestView
// fingerprints, then the checksum — stamped as the given version.
func fixedWidthImage(t testing.TB, v *join.SnapshotView, version uint32) []byte {
	t.Helper()
	var cur bytes.Buffer
	if err := WriteSnapshot(&cur, v); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e := newWriter(&buf)
	defer e.release()
	e.str(string(cur.Bytes()[:snapHeaderMax-maxProfileLen+len(v.Cfg.Profile)]))
	encodeTupleSection(e, v)
	for _, se := range v.Shards {
		e.u32slice(se.Globals)
	}
	e.u32(e.sum())
	e.flush()
	return reseal(buf.Bytes(), version)
}

// loadImage decodes an image and builds its index.
func loadImage(t *testing.T, img []byte) *join.ShardedRefIndex {
	t.Helper()
	v, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := join.NewShardedRefIndexFromSnapshot(v)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestLoadIsBulkBuild pins the one construction path: a snapshot of any
// version loads to the index a bulk build of the same tuples is. The
// v2, v3, v4 and v5 fixtures, the v5 one re-stamped as version 1 (an
// empty-profile fixed-width image reads as v1, see
// TestSnapshotV1Compat) and a version-6 re-encoding of the v4 one each
// load to the same shard membership
// and per-shard tuples, the same entry counts before and after the
// q-gram builds, the same digest and the same probe answers in both
// modes as BuildShardedRefIndex over v2FixtureTuples — and none of them
// counts as an upsert.
func TestLoadIsBulkBuild(t *testing.T) {
	tuples := v2FixtureTuples()
	bulk, err := join.BuildShardedRefIndex(join.Defaults(), 4, tuples)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bulk.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	images := map[string][]byte{}
	for name, path := range map[string]string{"v2": v2Fixture, "v3": v3Fixture, "v4": v4Fixture, "v5": v5Fixture} {
		if images[name], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	v4view, err := loadImage(t, images["v4"]).ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var v6 bytes.Buffer
	if err := WriteSnapshot(&v6, v4view); err != nil {
		t.Fatal(err)
	}
	images["v6"] = v6.Bytes()
	images["v1"] = reseal(images["v5"], 1)

	bulkEx, bulkQG := bulk.Entries()
	for _, name := range []string{"v1", "v2", "v3", "v4", "v5", "v6"} {
		t.Run(name, func(t *testing.T) {
			ix := loadImage(t, images[name])
			got, err := ix.ExportSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if MetaOf(got) != MetaOf(want) || !reflect.DeepEqual(got.Tuples, want.Tuples) || !reflect.DeepEqual(got.Shards, want.Shards) {
				t.Fatalf("loaded view differs from the bulk build's:\n got  %+v\n want %+v", got.Shards, want.Shards)
			}
			if ex, qg := ix.Entries(); ex != bulkEx || qg != bulkQG {
				t.Fatalf("Entries %d/%d before any approximate probe, bulk build %d/%d", ex, qg, bulkEx, bulkQG)
			}
			if a, b := DigestView(got), DigestView(want); !reflect.DeepEqual(a, b) {
				t.Fatalf("digest %+v, bulk build %+v", a, b)
			}
			if n := ix.MaintStats().Upserts; n != 0 {
				t.Fatalf("a load counted %d upserts", n)
			}
			assertAnswersLike(t, bulk, ix)
		})
	}
}

// TestStoreOnlyViewDuplicateKeyRejected: a version-2 image carries the
// store alone, and a load builds from it exactly as from any other
// version — so a key stored twice is rejected naming both refs, as for
// versions 3 to 6, not silently deduplicated.
func TestStoreOnlyViewDuplicateKeyRejected(t *testing.T) {
	img, err := os.ReadFile(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	v, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	if v.Shards != nil {
		t.Fatal("version-2 view carries shard exports")
	}
	v.Tuples[9].Key = v.Tuples[2].Key
	_, err = join.NewShardedRefIndexFromSnapshot(v)
	if want := "at both ref 2 and 9 "; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("duplicate key in a store-only view: %v, want an error containing %q", err, want)
	}
}

// TestPermutedMembersRejected encodes an image whose first shard lists
// its members out of order: the image decodes (its bounds are sound),
// and the load refuses it, since the stored member list is not the one
// the store's key homes give.
func TestPermutedMembersRejected(t *testing.T) {
	v, err := buildIndex(t, 3, 60).ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The export shares the shard's member array: permute a copy.
	g := append([]uint32(nil), v.Shards[0].Globals...)
	if len(g) < 2 {
		t.Fatal("fixture's first shard has fewer than two members")
	}
	g[0], g[1] = g[1], g[0]
	v.Shards[0].Globals = g
	var img bytes.Buffer
	if err := WriteSnapshot(&img, v); err != nil {
		t.Fatal(err)
	}
	dv, err := DecodeSnapshot(img.Bytes())
	if err != nil {
		t.Fatalf("permuted image failed to decode: %v", err)
	}
	_, err = join.NewShardedRefIndexFromSnapshot(dv)
	if want := fmt.Sprintf("shard 0 lists global ref %d at local 0", g[0]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("import of permuted members: %v, want an error containing %q", err, want)
	}
}
