package shardmap

import "fmt"

// NodeRange is one node's slice of the logical shard space: the
// half-open interval [Lo, Hi) of shard indices the node owns.
type NodeRange struct {
	Lo, Hi int
}

// Len returns the number of shards in the range.
func (r NodeRange) Len() int { return r.Hi - r.Lo }

// NodeRanges partitions the M logical shards over N nodes as contiguous
// ranges: node i owns NodeRanges(M, N)[i]. This is the cluster's
// shard→node assignment contract: a key is stored on exactly the node
// owning ShardOf(key, M), the same key-hash partition ShardedRefIndex
// uses inside a process, so every key has one home, an exact probe asks
// that node alone, and an approximate probe asks all N, each answering
// from its disjoint 1/N of the reference. Every router and every
// differential harness must derive placement from it. The split is as
// even as possible with the remainder spread over the first M%N nodes,
// so the assignment is a pure function of (shards, nodes) and two
// processes with the same pair always agree. It panics when nodes < 1
// or shards < nodes (a node owning zero shards is a configuration
// error, not a load-balancing choice).
func NodeRanges(shards, nodes int) []NodeRange {
	if nodes < 1 || shards < nodes {
		panic(fmt.Sprintf("shardmap: cannot spread %d shards over %d nodes", shards, nodes))
	}
	base, rem := shards/nodes, shards%nodes
	out := make([]NodeRange, nodes)
	lo := 0
	for i := range out {
		hi := lo + base
		if i < rem {
			hi++
		}
		out[i] = NodeRange{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// NodeOf returns the node owning the given logical shard under the
// NodeRanges contract, computed arithmetically (no table).
func NodeOf(shard, shards, nodes int) int {
	if shard < 0 || shard >= shards {
		panic(fmt.Sprintf("shardmap: shard %d outside [0, %d)", shard, shards))
	}
	base, rem := shards/nodes, shards%nodes
	// The first rem nodes own base+1 shards each.
	cut := rem * (base + 1)
	if shard < cut {
		return shard / (base + 1)
	}
	return rem + (shard-cut)/base
}
