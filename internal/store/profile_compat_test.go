package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/vfs"
)

// buildProfiledIndex builds a small resident index whose configuration
// carries a normalization-profile label (the store treats the label as
// opaque; applying it is the facade's job).
func buildProfiledIndex(t *testing.T, profile string) *join.ShardedRefIndex {
	t.Helper()
	cfg := join.Defaults()
	cfg.Profile = profile
	ix, err := join.BuildShardedRefIndex(cfg, 2, testTuples(40))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// The profile travels the snapshot byte format: encode, decode, and the
// label plus the derived Meta both carry it.
func TestSnapshotProfileRoundTrip(t *testing.T) {
	ix := buildProfiledIndex(t, "latin")
	v, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p := got.Config().Profile; p != "latin" {
		t.Fatalf("decoded profile %q, want latin", p)
	}
	if m := MetaOf(got); m.Profile != "latin" {
		t.Fatalf("MetaOf profile %q, want latin", m.Profile)
	}
}

// An over-long profile name is refused at write time rather than
// truncated on disk. join.Config.Validate rejects unknown names long
// before this, so the view is doctored after export to hit the cap.
func TestSnapshotProfileNameCap(t *testing.T) {
	ix := buildProfiledIndex(t, "")
	v, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	v.Cfg.Profile = strings.Repeat("x", maxProfileLen+1)
	if err := WriteSnapshot(&bytes.Buffer{}, v); err == nil {
		t.Fatal("WriteSnapshot accepted an over-cap profile name")
	}
}

// A version-1 snapshot — profile slot carrying the reserved zero word
// and no profile bytes — still decodes, with the profile read as "".
// An empty-profile image of the fixed-width layout (versions 3 to 5)
// has the identical header and store section (all a v1 load reads), so
// stamping it as version 1 produces v1 bytes as far as the decoder
// looks.
func TestSnapshotV1Compat(t *testing.T) {
	ix := buildProfiledIndex(t, "")
	v, err := ix.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	data := contentOf(v).fixedWidth(1)

	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	if p := got.Config().Profile; p != "" {
		t.Fatalf("v1 snapshot decoded profile %q, want \"\"", p)
	}
	if got.Len() != v.Len() {
		t.Fatalf("v1 snapshot decoded %d tuples, want %d", got.Len(), v.Len())
	}
}

// A version-1 WAL — fixed header only, no profile word — reopens under
// an empty-profile meta and replays its frames. As with snapshots, the
// v1 image is constructed from the v2 bytes: strip the profile word,
// restamp the version. Frame CRCs are per frame, so they survive the
// splice untouched.
func TestWALV1Compat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	meta := Meta{Q: 3, Theta: 0.75, Shards: 2}
	w, _, err := OpenWALFS(vfs.OS, path, meta, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	batch := []relation.Tuple{{ID: 1, Key: "ALPHA ONE"}, {ID: 2, Key: "BETA TWO"}}
	if err := w.Append(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), data[:walFixedHeaderSize]...)
	v1 = append(v1, data[walFixedHeaderSize+4:]...) // drop the (zero) profile word
	binary.LittleEndian.PutUint32(v1[8:], 1)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, replay, err := OpenWALFS(vfs.OS, path, meta, SyncNone)
	if err != nil {
		t.Fatalf("v1 WAL rejected: %v", err)
	}
	defer w2.Close()
	if len(replay.Batches) != 1 || len(replay.Batches[0]) != len(batch) {
		t.Fatalf("v1 WAL replayed %+v, want the original batch", replay.Batches)
	}
	if replay.Batches[0][0].Key != "ALPHA ONE" {
		t.Fatalf("v1 WAL first key %q", replay.Batches[0][0].Key)
	}
}

// The profile is part of the compatibility tuple at every gate: Meta
// mismatches name it, a WAL written under one profile refuses another,
// and a directory Open against a differently-profiled snapshot fails.
func TestProfileMismatchRejected(t *testing.T) {
	a := Meta{Q: 3, Theta: 0.75, Shards: 2, Profile: "latin"}
	b := a
	b.Profile = "greek"
	if err := a.Check(b); err == nil || !strings.Contains(err.Error(), "profile") {
		t.Fatalf("Meta.Check = %v, want a profile mismatch", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	w, _, err := OpenWALFS(vfs.OS, path, a, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWALFS(vfs.OS, path, b, SyncNone); err == nil || !strings.Contains(err.Error(), "profile") {
		t.Fatalf("OpenWALFS under the wrong profile = %v, want a profile mismatch", err)
	}

	idxDir := t.TempDir()
	d, err := Create(vfs.OS, idxDir, buildProfiledIndex(t, "latin"), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wrong := Meta{Q: join.Defaults().Q, Theta: join.Defaults().Theta, Measure: join.Defaults().Measure, Shards: 2, Profile: "greek"}
	if _, _, _, err := Open(vfs.OS, idxDir, wrong, SyncNone); err == nil || !strings.Contains(err.Error(), "profile") {
		t.Fatalf("Open under the wrong profile = %v, want a profile mismatch", err)
	}
}

// Create → Open round trip with a profiled index: PeekMeta reports the
// profile, and reopening under the stored meta reproduces it in the
// recovered configuration.
func TestDirProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ix := buildProfiledIndex(t, "cyrillic")
	d, err := Create(vfs.OS, dir, ix, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]relation.Tuple{{ID: 77, Key: "GAMMA THREE"}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := PeekMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || m.Profile != "cyrillic" {
		t.Fatalf("PeekMeta = %+v, want profile cyrillic", m)
	}
	_, re, rec, err := Open(vfs.OS, dir, *m, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if rec.WALRecords != 1 {
		t.Fatalf("recovered %d WAL records, want 1", rec.WALRecords)
	}
	if got, _ := re.ExportSnapshot(); got.Cfg.Profile != "cyrillic" {
		t.Fatalf("recovered profile %q, want cyrillic", got.Cfg.Profile)
	}
}
