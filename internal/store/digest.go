package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"iter"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
)

// ContentDigest is a cheap fingerprint of an index's logical content:
// CRC-32C over the canonical fixed-width content stream of the global
// tuple store, plus one CRC per shard section (the shard's member
// refs), independent of the file version. It
// is computed from the same export a checkpoint writes, without
// touching disk, so two replicas that applied the same upsert stream
// report the same digest — whether or not either has built its q-gram
// structures — and anti-entropy can compare replicas by exchanging a
// few dozen bytes instead of snapshots.
//
// The digest deliberately excludes the snapshot header (version, config
// words): configuration compatibility is Meta.Check's job; the digest
// answers only "same content?".
type ContentDigest struct {
	// Combined folds the store CRC and every shard CRC into one
	// hex-encoded word — the value replicas compare.
	Combined string `json:"combined"`
	// Store is the tuple-store section's CRC, Shards the per-shard
	// section CRCs (hex), for narrowing a divergence to a shard.
	Store  string   `json:"store"`
	Shards []string `json:"shards"`
	// Tuples is the global store size the digest covers.
	Tuples int `json:"tuples"`
	// WALRecords is the number of upsert batches logged since the last
	// checkpoint: the replica's log position, read atomically with the
	// digest. DigestView, which sees a view and no log, leaves it 0; a
	// durable index's Digest sets it.
	WALRecords int64 `json:"wal_records"`
}

// DigestView fingerprints a snapshot view: the canonical fixed-width
// content stream, independent of the file version, streamed through
// the CRC without being materialized.
func DigestView(v *join.SnapshotView) ContentDigest {
	e := newWriter(io.Discard)
	defer e.release()
	encodeTupleSection(e, v.Len(), v.Store())
	storeCRC := e.sum()

	comb := crc32.New(castagnoli)
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], storeCRC)
	comb.Write(word[:])
	shards := make([]string, len(v.Shards))
	for i, members := range v.Shards {
		e.crc.Reset()
		e.u32slice(members)
		c := e.sum()
		shards[i] = fmt.Sprintf("%08x", c)
		binary.LittleEndian.PutUint32(word[:], c)
		comb.Write(word[:])
	}
	return ContentDigest{
		Combined: fmt.Sprintf("%08x", comb.Sum32()),
		Store:    fmt.Sprintf("%08x", storeCRC),
		Shards:   shards,
		Tuples:   v.Len(),
	}
}

// encodeTupleSection writes the canonical content stream of the global
// store (tuple IDs, keys, ragged attr lists): the fixed-width layout
// version 5 stored, kept as the digest's encoding so that digests do
// not move with the file format.
func encodeTupleSection(e *writer, n int, store iter.Seq[relation.Tuple]) {
	for t := range store {
		e.u64(uint64(int64(t.ID)))
	}
	e.stringBlob(n, func(yield func(string) bool) {
		for t := range store {
			if !yield(t.Key) {
				return
			}
		}
	})
	// Per-tuple attr lists as one ragged string blob: (n+1) offsets into
	// a flat attr list, then the flat list as a string blob.
	attrs := 0
	for t := range store {
		e.u32(uint32(attrs))
		attrs += len(t.Attrs)
	}
	e.u32(uint32(attrs))
	e.stringBlob(attrs, func(yield func(string) bool) {
		for t := range store {
			for _, a := range t.Attrs {
				if !yield(a) {
					return
				}
			}
		}
	})
}
