package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/join"
)

// ContentDigest is a cheap fingerprint of an index's logical content:
// CRC-32C over the canonical snapshot encoding of the global tuple
// store, plus one CRC per shard section. It is computed from the same
// export a checkpoint writes, without touching disk, so two replicas
// that applied the same upsert stream report the same digest — whether
// or not either has built its q-gram structures — and anti-entropy can
// compare replicas by exchanging a few dozen bytes instead of
// snapshots.
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
// through the CRC without materializing the snapshot bytes. A shard
// section's CRC is memoised on the index generation it was exported
// from, so a shard no upsert has touched since the last digest costs
// nothing: an idle index re-encodes only its tuple store.
func DigestView(v *join.SnapshotView) ContentDigest {
	e := newWriter(io.Discard)
	defer e.release()
	encodeTupleSection(e, v)
	storeCRC := e.sum()

	shardCRCs := make([]uint32, len(v.Shards))
	stale := func(i int) bool {
		c, ok := v.Shards[i].SectionCRC()
		shardCRCs[i] = c
		return !ok
	}
	forSections(v, stale, func(i int, qg hashidx.QGramExport) {
		e.crc.Reset()
		encodeShardSection(e, v.Shards[i].Globals, qg)
		shardCRCs[i] = e.sum()
		v.Shards[i].RecordSectionCRC(shardCRCs[i])
	})
	shards := make([]string, len(v.Shards))
	for i, c := range shardCRCs {
		shards[i] = fmt.Sprintf("%08x", c)
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
