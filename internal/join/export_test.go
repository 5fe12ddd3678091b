package join

// BuildShard builds shard sh's q-gram structures, as the first
// approximate probe into it does, for tests outside the package that
// need single shards built at chosen points.
func (s *ShardedRefIndex) BuildShard(sh int) { s.built(sh) }
