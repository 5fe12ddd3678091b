package store

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"adaptivelink/internal/fault"
	"adaptivelink/internal/join"
	"adaptivelink/internal/simfn"
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

// TestFailedLoggedBulkUpsertAppliesNothing fails the log append of an
// upsert into an empty durable index — the header's write, the
// payload's write and the fsync — as the durable facade composes it:
// the batch is built as a bulk load beside its append, and published
// only once the append succeeded. The failed upsert leaves the index
// empty and answering nothing. Reopened, the index is still empty when
// no frame reached the log intact, and a retry loads the batch.
func TestFailedLoggedBulkUpsertAppliesNothing(t *testing.T) {
	rows := testTuples(300)
	meta := Meta{Q: 3, Theta: 0.75, Measure: simfn.Jaccard, Shards: 3}
	for _, op := range []struct {
		op       fault.Op
		nth      int
		reopened bool // whether the batch is gone after a reopen too
	}{{fault.OpWrite, 1, true}, {fault.OpWrite, 2, true}, {fault.OpSync, 1, false}} {
		dir := filepath.Join(t.TempDir(), "ix")
		d, _, _, err := Open(vfs.OS, dir, meta, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		fsys := fault.NewSimFS()
		d, ix, _, err := Open(fsys, dir, meta, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if n := fsys.WriteOps(); n != 0 {
			t.Fatalf("reopening an empty index wrote %d times", n)
		}
		fsys.FailOp(op.op, op.nth, nil)
		if _, _, err := ix.UpsertLogged(rows, func() error { return d.Append(rows) }); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("%s #%d failed: the upsert returned %v", op.op, op.nth, err)
		}
		empty := func(when string, ix *join.ShardedRefIndex) {
			t.Helper()
			if ix.Len() != 0 || ix.MaintStats().Upserts != 0 {
				t.Fatalf("%s #%d failed, %s: Len %d, %d upserts counted", op.op, op.nth, when, ix.Len(), ix.MaintStats().Upserts)
			}
			for _, r := range rows[:20] {
				if got := append(ix.ProbeExact(r.Key), ix.ProbeApprox(r.Key)...); len(got) != 0 {
					t.Fatalf("%s #%d failed, %s: %q answers %v", op.op, op.nth, when, r.Key, got)
				}
			}
		}
		empty("before a reopen", ix)
		d.Close()
		d, ix, _, err = Open(vfs.OS, dir, meta, SyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		if op.reopened {
			empty("after a reopen", ix)
			if _, _, err := ix.UpsertLogged(rows, func() error { return d.Append(rows) }); err != nil {
				t.Fatalf("%s #%d failed: the retry after a reopen: %v", op.op, op.nth, err)
			}
		}
		// A failed fsync leaves the frame in the file: the reopen replays
		// the batch the upsert did not acknowledge, as it replays a frame
		// whose fsync a crash interrupted.
		want, err := join.BuildShardedRefIndex(join.Defaults(), 3, rows)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Len() != want.Len() {
			t.Fatalf("%s #%d failed: %d rows after the reopen, want %d", op.op, op.nth, ix.Len(), want.Len())
		}
		d.Close()
	}
}
