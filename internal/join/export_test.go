package join

import "fmt"

// BuildShard builds shard sh's q-gram structures, as the first
// approximate probe into it does, for tests outside the package that
// need single shards built at chosen points.
func (s *ShardedRefIndex) BuildShard(sh int) { s.built(sh) }

// Resolve returns v. A view is plain data — it holds no shard generation
// to derive a section from — so it is already resolved; the codec
// differentials state both forms of the digest they compare.
func (v *SnapshotView) Resolve() *SnapshotView { return v }

// RenderShards writes out everything a probe can observe of every
// shard's published snapshot (renderSnap), for tests outside the
// package that compare two indexes' shards.
func (s *ShardedRefIndex) RenderShards() string {
	out := ""
	for sh := range s.shards {
		out += fmt.Sprintf("shard %d: %s", sh, renderSnap(s.cfg, s.shards[sh].Load()))
	}
	return out
}
