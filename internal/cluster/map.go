// Package cluster shards the resident linkage service across processes:
// a cluster map assigns the M logical key-hash shards of
// internal/shardmap to N node groups as contiguous ranges
// (shardmap.NodeRanges, the shard→node assignment contract), and an HTTP
// fan-out client implements join.Resident on top of the node daemons'
// standard v1 API. Placement is the rule join.ShardedRefIndex applies
// inside a process: a reference tuple lives on exactly one group, the
// owner of shardmap.ShardOf(key, M). An upsert goes to that group only,
// an exact probe asks it alone, and an approximate probe asks ALL groups
// — a similar reference may be homed anywhere — each answering from its
// disjoint 1/N of the reference, so the cluster stores one copy per
// replica and divides the approximate work instead of multiplying it.
//
// The union of the groups' answers is the single-process result set
// because the groups partition the reference, and the merged list is
// the single-process list because both order a key's matches by their
// content (join.CompareMatches). Nodes are stock adaptivelinkd daemons
// — the router owns normalization, placement and the merge, and keeps
// nothing per key; nodes own storage, probing and durability for their
// hash ranges. A match a group reports
// for a key it is not home to is dropped at the merge: nodes populated
// by a release that also placed keys on their signature groups keep
// serving without a rewrite, their unmaintained copies never answering.
//
// Client.CreateIndex builds a routed index as an ordinary facade
// adaptivelink.Index over a View: the facade resolves and validates the
// options before any node is contacted and owns normalization, and the
// View carries only routing. View.Upsert returns a write's failure to
// the facade, which returns it from Index.Upsert.
//
// Partial-failure policy: a batch either completes against every group
// it needs (every group, for an approximate probe) or fails with
// ErrNodeUnavailable — the router never returns silent partial results.
// Within a replica group, reads fail over between replicas (round-robin)
// on transport errors and draining nodes; only a group with no answering
// replica fails the batch.
package cluster

import (
	"fmt"
	"strings"

	"adaptivelink/internal/shardmap"
)

// Map is the cluster's placement configuration: M logical key-hash
// shards spread over the node groups under the shardmap.NodeRanges
// contract. Every router (and every differential harness) with the same
// Map derives the same placement.
type Map struct {
	// Shards is the logical shard count M. It is a constant for the
	// cluster's lifetime: a key's home group derives from it.
	Shards int
	// Groups lists each node group's replica base URLs (e.g.
	// "http://10.0.0.1:8080"). Group i owns the shard range
	// NodeRanges(Shards, len(Groups))[i]; replicas within a group hold
	// identical data (writes fan out to all, reads pick one).
	Groups [][]string
}

// ParseSpec parses the -cluster flag syntax: groups separated by ';',
// replicas within a group by ','. "http://a,http://b;http://c" is two
// groups, the first with two replicas. shards is the logical shard
// count; 0 defaults to one shard per group.
func ParseSpec(spec string, shards int) (Map, error) {
	var m Map
	for _, g := range strings.Split(spec, ";") {
		var reps []string
		for _, r := range strings.Split(g, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				continue
			}
			reps = append(reps, strings.TrimRight(r, "/"))
		}
		if len(reps) > 0 {
			m.Groups = append(m.Groups, reps)
		}
	}
	m.Shards = shards
	if m.Shards == 0 {
		m.Shards = len(m.Groups)
	}
	if err := m.Validate(); err != nil {
		return Map{}, err
	}
	return m, nil
}

// Validate checks the map is routable. A replica URL may be listed only
// once, within a group or across groups (compared without a trailing
// slash): a node listed twice would have its acknowledgement counted
// twice toward a write quorum.
func (m Map) Validate() error {
	if len(m.Groups) == 0 {
		return fmt.Errorf("cluster: map has no node groups")
	}
	seen := make(map[string]int)
	for i, g := range m.Groups {
		if len(g) == 0 {
			return fmt.Errorf("cluster: group %d has no replicas", i)
		}
		for _, r := range g {
			if !strings.HasPrefix(r, "http://") && !strings.HasPrefix(r, "https://") {
				return fmt.Errorf("cluster: replica %q of group %d is not an http(s) base URL", r, i)
			}
			if j, dup := seen[strings.TrimRight(r, "/")]; dup {
				return fmt.Errorf("cluster: replica %q of group %d is already listed in group %d", r, i, j)
			}
			seen[strings.TrimRight(r, "/")] = i
		}
	}
	if m.Shards < len(m.Groups) {
		return fmt.Errorf("cluster: %d logical shards cannot cover %d groups (every group must own at least one shard)", m.Shards, len(m.Groups))
	}
	return nil
}

// Ranges returns each group's owned shard range under the assignment
// contract.
func (m Map) Ranges() []shardmap.NodeRange {
	return shardmap.NodeRanges(m.Shards, len(m.Groups))
}

// GroupOf returns the group owning the given logical shard.
func (m Map) GroupOf(shard int) int {
	return shardmap.NodeOf(shard, m.Shards, len(m.Groups))
}

// home returns the one group that stores key: the owner of its key-hash
// shard. Writes go there only, exact probes ask it alone, and an
// approximate answer counts only from it.
func (m Map) home(key string) int {
	return m.GroupOf(shardmap.ShardOf(key, m.Shards))
}
