package store

import (
	"bytes"
	"os"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/vfs"
)

// fuzzSeedSnapshot is a small valid snapshot image to seed mutation
// from (the interesting bugs live one bit flip away from valid).
func fuzzSeedSnapshot(f *testing.F) []byte {
	ix, err := join.BuildShardedRefIndex(join.Defaults(), 2, []relation.Tuple{
		{ID: 1, Key: "john smith", Attrs: []string{"a"}},
		{ID: 2, Key: "maria garcia", Attrs: []string{"b", "c"}},
		{ID: 3, Key: ""},
	})
	if err != nil {
		f.Fatal(err)
	}
	v, err := ix.ExportSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, v); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSnapshotDecode hammers the snapshot loader with hostile bytes:
// whatever the input, it must return a view or an error — never panic,
// never allocate unboundedly — and any view it does return must either
// import cleanly or be rejected by the importer's own validation.
func FuzzSnapshotDecode(f *testing.F) {
	seed := fuzzSeedSnapshot(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(seed[:9])
	f.Add([]byte{})
	f.Add([]byte("ALSNAP\x01\n"))
	// Genuine images of the older layouts the loader still reads:
	// version 3 (stored postings, skipped), version 2 (store only) and
	// version 4 (stored q-gram sections, checked and skipped) — and the
	// current image of the version-4 fixture's content.
	for _, fixture := range []string{v3Fixture, v2Fixture, v4Fixture} {
		old, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	v, err := ReadSnapshotFile(v4Fixture)
	if err != nil {
		f.Fatal(err)
	}
	var cur bytes.Buffer
	if err := WriteSnapshot(&cur, v); err != nil {
		f.Fatal(err)
	}
	f.Add(cur.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Structurally valid bytes: the importer must still hold every
		// cross-structure invariant without panicking.
		if _, err := join.NewShardedRefIndexFromSnapshot(v); err != nil {
			return
		}
	})
}

// fuzzSeedWAL is a small valid WAL image (header + two frames).
func fuzzSeedWAL(f *testing.F) []byte {
	dir := f.TempDir()
	w, _, err := OpenWALFS(vfs.OS, dir+"/"+WALFile, Meta{Q: 3, Theta: 0.75, Shards: 2}, SyncNone)
	if err != nil {
		f.Fatal(err)
	}
	w.Append([]relation.Tuple{{ID: 1, Key: "john smith", Attrs: []string{"a"}}})
	w.Append([]relation.Tuple{{ID: 2, Key: ""}})
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/" + WALFile)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzWALReplay hammers the WAL decoder with hostile bytes: it must
// return batches or an error — never panic — and the reported good
// offset must always sit on a frame boundary within the input.
func FuzzWALReplay(f *testing.F) {
	seed := fuzzSeedWAL(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(seed[:walFixedHeaderSize])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := decodeWALBytes(data)
		if err != nil {
			return
		}
		if dec.good < walFixedHeaderSize || dec.good > len(data) {
			t.Fatalf("good offset %d outside header..len range of %d-byte input", dec.good, len(data))
		}
		if !dec.torn && dec.good != len(data) {
			t.Fatalf("not torn, but good offset %d != len %d", dec.good, len(data))
		}
	})
}
