package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"adaptivelink/internal/join"
)

// ContentDigest is a cheap fingerprint of an index's logical content:
// CRC-32C over the canonical snapshot encoding of the global tuple
// store, plus one CRC per shard section. It is computed straight from
// the PR 5 in-memory representation (the same export a checkpoint
// writes) — no gram is re-hashed, no disk is touched — so two replicas
// that applied the same upsert stream report the same digest, and
// anti-entropy can compare replicas by exchanging a few dozen bytes
// instead of snapshots.
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
}

// DigestView fingerprints a snapshot view. The encoding work streams
// through the CRC without materializing the snapshot bytes.
func DigestView(v *join.SnapshotView) ContentDigest {
	e := newWriter(io.Discard)
	defer e.release()
	encodeTupleSection(e, v)
	storeCRC := e.sum()

	shardCRCs := make([]uint32, len(v.Shards))
	shards := make([]string, len(v.Shards))
	for i := range v.Shards {
		e.crc.Reset()
		encodeShardSection(e, &v.Shards[i])
		shardCRCs[i] = e.sum()
		shards[i] = fmt.Sprintf("%08x", shardCRCs[i])
	}

	comb := crc32.New(castagnoli)
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], storeCRC)
	comb.Write(word[:])
	for _, c := range shardCRCs {
		binary.LittleEndian.PutUint32(word[:], c)
		comb.Write(word[:])
	}
	return ContentDigest{
		Combined: fmt.Sprintf("%08x", comb.Sum32()),
		Store:    fmt.Sprintf("%08x", storeCRC),
		Shards:   shards,
		Tuples:   len(v.Tuples),
	}
}
