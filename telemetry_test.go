package adaptivelink

import (
	"path/filepath"
	"testing"

	"adaptivelink/internal/join"
)

func TestTelemetryAccessors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Open(dir, IndexOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, err := ix.Upsert(Tuple{ID: 1, Key: "VIA MONTE ROSA 7"}, Tuple{ID: 2, Key: "PIAZZA DUOMO 1"}); err != nil {
		t.Fatalf("Upsert: %v", err)
	}

	es := ix.EngineStats()
	if es.Upserts != 1 {
		t.Fatalf("EngineStats.Upserts = %d, want 1", es.Upserts)
	}
	if es.SnapshotSwaps == 0 {
		t.Fatalf("EngineStats.SnapshotSwaps = 0 after an upsert")
	}
	if es.ScratchGets == 0 || es.ScratchMisses > es.ScratchGets {
		t.Fatalf("scratch counters inconsistent: gets=%d misses=%d", es.ScratchGets, es.ScratchMisses)
	}
	if es.QGramBuilds != 0 || es.QGramBuiltShards != 0 || es.QGramBuildKeys != 0 || es.QGramPostingBytes != 0 {
		t.Fatalf("q-gram builds before any approximate probe: %+v", es)
	}
	// The first approximate probe builds every shard once; a second
	// builds nothing.
	sess, err := ix.NewSession(SessionOptions{Strategy: ApproximateOnly})
	if err != nil {
		t.Fatal(err)
	}
	sess.Probe("VIA MONTE ROSSA 7")
	sess.Probe("PIAZZA DUOMO 2")
	es = ix.EngineStats()
	shards := ix.Options().Shards
	if es.QGramBuilds != uint64(shards) || es.QGramBuiltShards != shards || es.QGramBuildKeys != 2 || es.QGramBuildSeconds <= 0 {
		t.Fatalf("after approximate probes into %d shards: %+v, want %d builds of 2 keys in all", shards, es, shards)
	}
	// Two keys fill no block: every posting sits in a tail, at 4 bytes.
	if _, grams := ix.resident().(*join.ShardedRefIndex).Entries(); es.QGramPostingBytes != int64(4*grams) || grams == 0 {
		t.Fatalf("QGramPostingBytes = %d for %d postings, all in tails", es.QGramPostingBytes, grams)
	}

	st, ok := ix.StorageStats()
	if !ok {
		t.Fatalf("StorageStats not ok for a durable index")
	}
	if st.WALAppends != 1 {
		t.Fatalf("WALAppends = %d, want 1", st.WALAppends)
	}
	if st.WALAppendSeconds <= 0 {
		t.Fatalf("WALAppendSeconds = %v, want > 0", st.WALAppendSeconds)
	}
	if err := ix.Save(""); err != nil {
		t.Fatalf("Save: %v", err)
	}
	st, _ = ix.StorageStats()
	if st.Checkpoints != 1 || st.CheckpointSeconds <= 0 {
		t.Fatalf("checkpoint stats = %+v, want 1 checkpoint with time", st)
	}

	// Fresh open on a directory with a snapshot: recovery reported.
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ix2, err := Open(dir, IndexOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ix2.Close()
	ri := ix2.RecoveryInfo()
	if !ri.Recovered || ri.SnapshotTuples != 2 || ri.WALBatchesReplayed != 0 || ri.TornTailTruncated {
		t.Fatalf("RecoveryInfo = %+v, want recovered snapshot of 2", ri)
	}
}

func TestTelemetryInMemory(t *testing.T) {
	ix, err := NewIndex(FromTuples([]Tuple{{ID: 1, Key: "VIA ROMA 1"}}), IndexOptions{})
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	if ri := ix.RecoveryInfo(); ri.Recovered {
		t.Fatalf("in-memory RecoveryInfo = %+v, want zero", ri)
	}
	if _, ok := ix.StorageStats(); ok {
		t.Fatalf("in-memory StorageStats ok = true, want false")
	}
}
