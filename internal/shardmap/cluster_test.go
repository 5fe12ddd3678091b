package shardmap

import "testing"

// The assignment contract: contiguous, disjoint, covering, and NodeOf
// agrees with NodeRanges for every (shards, nodes, shard) triple.
func TestNodeAssignmentContract(t *testing.T) {
	for shards := 1; shards <= 24; shards++ {
		for nodes := 1; nodes <= shards; nodes++ {
			ranges := NodeRanges(shards, nodes)
			if len(ranges) != nodes {
				t.Fatalf("NodeRanges(%d, %d) has %d ranges", shards, nodes, len(ranges))
			}
			next := 0
			for i, r := range ranges {
				if r.Lo != next || r.Hi <= r.Lo {
					t.Fatalf("NodeRanges(%d, %d)[%d] = %+v, want contiguous from %d", shards, nodes, i, r, next)
				}
				next = r.Hi
			}
			if next != shards {
				t.Fatalf("NodeRanges(%d, %d) covers [0, %d), want [0, %d)", shards, nodes, next, shards)
			}
			// Evenness: range sizes differ by at most one.
			for _, r := range ranges {
				if d := r.Len() - ranges[len(ranges)-1].Len(); d < 0 || d > 1 {
					t.Fatalf("NodeRanges(%d, %d) uneven: %+v", shards, nodes, ranges)
				}
			}
			for shard := 0; shard < shards; shard++ {
				n := NodeOf(shard, shards, nodes)
				if r := ranges[n]; shard < r.Lo || shard >= r.Hi {
					t.Fatalf("NodeOf(%d, %d, %d) = %d but range %+v does not own it", shard, shards, nodes, n, ranges[n])
				}
			}
		}
	}
}

func TestNodeRangesRejectsStarvedNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NodeRanges(2, 3) did not panic")
		}
	}()
	NodeRanges(2, 3)
}
