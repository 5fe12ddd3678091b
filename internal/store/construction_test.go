package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
)

// reseal rewrites an image's version word and trailing checksum.
func reseal(img []byte, version uint32) []byte {
	out := append([]byte(nil), img...)
	binary.LittleEndian.PutUint32(out[len(snapMagic):], version)
	return fixCRC(out)
}

// content is what an image stores — a configuration, a shard count,
// the tuple store and each shard's member refs — written as given,
// consistent or not, so that a test can build the images no index
// exports.
type content struct {
	cfg    join.Config
	nshard int
	tuples []relation.Tuple
	shards [][]uint32
}

// contentOf gathers an exported view's content, its member refs copied
// so that a test may edit them.
func contentOf(v *join.SnapshotView) content {
	c := content{cfg: v.Cfg, nshard: v.NShard, tuples: slices.Collect(v.Store())}
	for _, members := range v.Shards {
		c.shards = append(c.shards, slices.Clone(members))
	}
	return c
}

// image encodes c in the current format, through the encoder's own
// header and column writers.
func (c content) image() []byte {
	var buf bytes.Buffer
	e := newWriter(&buf)
	defer e.release()
	writeHeader(e, c.cfg, c.nshard, len(c.tuples))
	encodeColumns(e, slices.Values(c.tuples), c.shards)
	e.u32(e.sum())
	e.flush()
	return buf.Bytes()
}

// fixedWidth encodes c in the fixed-width layout versions 3 to 5
// stored — the header, then the canonical content stream DigestView
// fingerprints, then the checksum — stamped as the given version.
func (c content) fixedWidth(version uint32) []byte {
	var buf bytes.Buffer
	e := newWriter(&buf)
	defer e.release()
	writeHeader(e, c.cfg, c.nshard, len(c.tuples))
	encodeTupleSection(e, len(c.tuples), slices.Values(c.tuples))
	for _, members := range c.shards {
		e.u32slice(members)
	}
	e.u32(e.sum())
	e.flush()
	return reseal(buf.Bytes(), version)
}

// loadImage decodes an image into its index.
func loadImage(t *testing.T, img []byte) *join.ShardedRefIndex {
	t.Helper()
	ix, err := DecodeSnapshot(img)
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
			if MetaOf(ix) != MetaOf(bulk) || !sameView(got, want) {
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
	v, err := loadImage(t, readFile(t, v2Fixture)).ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	c := contentOf(v)
	c.tuples[9].Key = c.tuples[2].Key
	_, err = DecodeSnapshot(c.fixedWidth(2))
	if want := "at both ref 2 and 9 "; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("duplicate key in a store-only image: %v, want an error containing %q", err, want)
	}
}

// TestPermutedMembersRejected encodes an image whose first shard lists
// its members out of order: the image's bounds are sound, and the load
// refuses it, since the stored member list is not the one the store's
// key homes give.
func TestPermutedMembersRejected(t *testing.T) {
	v, err := buildIndex(t, 3, 60).ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	c := contentOf(v)
	g := c.shards[0]
	if len(g) < 2 {
		t.Fatal("fixture's first shard has fewer than two members")
	}
	g[0], g[1] = g[1], g[0]
	if _, _, _, err := decodeImage(c.image()); err != nil {
		t.Fatalf("permuted image failed to decode: %v", err)
	}
	_, err = DecodeSnapshot(c.image())
	if want := fmt.Sprintf("shard 0 lists global ref %d at local 0", g[0]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("load of permuted members: %v, want an error containing %q", err, want)
	}
}

// TestLoadRejectsInconsistentImages: an image whose bytes are sound but
// whose store and member refs disagree is refused by the load, with an
// error naming what is wrong, never built into an index that can
// misbehave later. Each case edits the content of a two-shard export
// and writes it as a version-6 image under a valid checksum.
func TestLoadRejectsInconsistentImages(t *testing.T) {
	v, err := buildIndex(t, 2, 20).ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(c *content) string // the error's expected text
	}{
		{"shard count mismatch", func(c *content) string {
			c.shards = c.shards[:1]
			return "shard member count varint"
		}},
		{"bad config", func(c *content) string {
			c.cfg.Q = 0
			return "q-gram width 0 < 1"
		}},
		// Two refs of one shard under one key: the second one is a second
		// hit in that shard's exact index.
		{"duplicate store key", func(c *content) string {
			g := c.shards[0]
			c.tuples[g[1]].Key = c.tuples[g[0]].Key
			return fmt.Sprintf("at both ref %d and %d (the store is keyed)", g[0], g[1])
		}},
		// Across shards, the copy sits outside its key's home, and the
		// build meets it in that home first.
		{"duplicate store key across shards", func(c *content) string {
			c.tuples[c.shards[1][0]].Key = c.tuples[c.shards[0][0]].Key
			return "(the store is keyed)"
		}},
		{"global ref out of range", func(c *content) string {
			g := c.shards[0]
			want := fmt.Sprintf("shard 0 lists global ref %d at local 0, where the store's key homes give %d", len(c.tuples), g[0])
			g[0] = uint32(len(c.tuples))
			return want
		}},
		{"globals not ascending", func(c *content) string {
			g := c.shards[0]
			g[0], g[len(g)-1] = g[len(g)-1], g[0]
			return fmt.Sprintf("shard 0 lists global ref %d at local 0, where the store's key homes give %d", g[0], g[len(g)-1])
		}},
		{"key outside its home shard", func(c *content) string {
			homed, listed := c.shards[0], c.shards[1]
			c.shards[0], c.shards[1] = c.shards[1], c.shards[0]
			if len(listed) == len(homed) {
				return fmt.Sprintf("shard 0 lists global ref %d at local 0", listed[0])
			}
			return fmt.Sprintf("shard 0 lists %d members, the keys homed there number %d", len(listed), len(homed))
		}},
		{"shards do not cover the store", func(c *content) string {
			c.tuples = append(c.tuples, relation.Tuple{ID: 777, Key: "in the store, in no shard"})
			return "members, the keys homed there number"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := contentOf(v)
			want := tc.edit(&c)
			if _, err := DecodeSnapshot(c.image()); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("DecodeSnapshot = %v, want an error containing %q", err, want)
			}
		})
	}
	// The pristine content loads: the edits above are what each case
	// broke.
	assertSameIndex(t, buildIndex(t, 2, 20), loadImage(t, contentOf(v).image()))
}
