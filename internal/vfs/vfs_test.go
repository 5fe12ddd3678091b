package vfs

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOSPassthrough drives every FS operation of the os-backed
// implementation once: a temp file written, synced, renamed into place
// with the directory synced, reopened through OpenFile, and removed.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	f, err := OS.CreateTemp(dir, "snap-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "index.snap")
	if err := OS.Rename(f.Name(), final); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("SyncDir of a missing directory succeeded")
	}

	g, err := OS.OpenFile(final, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := g.Read(buf)
	if got := string(buf[:n]); got != "payload" {
		t.Errorf("read back %q, want %q", got, "payload")
	}
	if err := g.Truncate(3); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(final); err != nil || fi.Size() != 3 {
		t.Errorf("after Truncate(3): %v, %v", fi, err)
	}
	if err := OS.Remove(final); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Errorf("file survived Remove: %v", err)
	}
}
