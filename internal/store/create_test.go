package store

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"adaptivelink/internal/fault"
	"adaptivelink/internal/join"
	"adaptivelink/internal/vfs"
)

// TestFailedCreateLeavesNothing fails each write-class filesystem
// operation of a create in turn — every write and fsync of the snapshot
// and the log, the rename, the directory fsync — through Create (an
// index built first, as Save and an import persist) and through
// CreateBuild (a bulk build persisting beside its inserts). Every
// failed create leaves the directory as it found it: gone if the create
// made it, empty if it was there empty. So the same directory then takes
// a create, and an Open of it finds no index.
func TestFailedCreateLeavesNothing(t *testing.T) {
	ix := buildIndex(t, 2, 40)
	rows := testTuples(40)
	creates := map[string]func(fsys vfs.FS, dir string) error{
		"Create": func(fsys vfs.FS, dir string) error {
			d, err := Create(fsys, dir, ix, SyncAlways)
			if err == nil {
				d.Close()
			}
			return err
		},
		"CreateBuild": func(fsys vfs.FS, dir string) error {
			b, err := join.NewBulk(join.Defaults(), 2, slices.Clone(rows))
			if err != nil {
				return err
			}
			_, d, err := CreateBuild(fsys, dir, SyncAlways, b.Build)
			if err == nil {
				d.Close()
			}
			return err
		},
	}
	ops := []fault.Op{fault.OpWrite, fault.OpSync, fault.OpTruncate, fault.OpRename, fault.OpSyncDir}
	for name, create := range creates {
		for _, existing := range []bool{false, true} {
			failed := map[fault.Op]int{}
			for _, op := range ops {
				for nth := 1; ; nth++ {
					dir := filepath.Join(t.TempDir(), "ix")
					if existing {
						if err := os.Mkdir(dir, 0o755); err != nil {
							t.Fatal(err)
						}
					}
					if create(fault.NewSimFS().FailOp(op, nth, nil), dir) == nil {
						break // the create has fewer such operations
					}
					failed[op]++
					entries, err := os.ReadDir(dir)
					switch {
					case existing && (err != nil || len(entries) > 0):
						t.Fatalf("%s, %s #%d failed: the directory it was given holds %v (%v), want it empty", name, op, nth, entries, err)
					case !existing && !os.IsNotExist(err):
						t.Fatalf("%s, %s #%d failed: the directory it made survives, holding %v (%v)", name, op, nth, entries, err)
					}
					if m, err := PeekMeta(dir); m != nil || err != nil {
						t.Fatalf("%s, %s #%d failed: the directory holds an index (%v, %v)", name, op, nth, m, err)
					}
					if err := create(vfs.OS, dir); err != nil {
						t.Fatalf("%s, %s #%d failed: a second create of the directory: %v", name, op, nth, err)
					}
				}
			}
			// The snapshot's and the log's write and fsync, the rename
			// and the directory fsync all failed at least once.
			for _, op := range []fault.Op{fault.OpWrite, fault.OpSync, fault.OpRename, fault.OpSyncDir} {
				if failed[op] == 0 {
					t.Fatalf("%s: no %s of the create was failed (%v)", name, op, failed)
				}
			}
			if failed[fault.OpWrite] < 2 || failed[fault.OpSync] < 2 {
				t.Fatalf("%s: %v failed; want the snapshot's and the log's writes and fsyncs", name, failed)
			}
		}
	}
}
