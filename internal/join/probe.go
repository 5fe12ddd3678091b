package join

import (
	"cmp"
	"strings"

	"adaptivelink/internal/relation"
)

// RefMatch is one probe result: a stored reference tuple together with
// the verified similarity evidence.
type RefMatch struct {
	// Tuple is a snapshot of the stored reference tuple.
	Tuple relation.Tuple
	// Similarity is 1 for key-equal matches, otherwise the configured
	// measure's verified value.
	Similarity float64
	// Exact reports key equality.
	Exact bool
}

// CompareMatches is the one order of a key's matches, wherever they
// are gathered: the key-equal match first, then similarity descending,
// then the reference key bytewise. A keyed store holds each key once,
// so among one probe's matches this is a total order and a function of
// the match set alone: the shard merge and the router's merge of the
// node groups' answers both sort by it, and an index answers the same
// list whatever order its keys were written in.
func CompareMatches(a, b RefMatch) int {
	if a.Exact != b.Exact {
		if a.Exact {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(b.Similarity, a.Similarity); c != 0 {
		return c
	}
	return strings.Compare(a.Tuple.Key, b.Tuple.Key)
}

// Resident is the contract of a resident index as the public facade
// drives it — these four calls and nothing else. In process there is
// one implementation, the sharded RCU-snapshot ShardedRefIndex (the
// tests hold it to a sequential oracle through the same contract), and
// the interface is the seam the cluster view (internal/cluster) and
// decorators such as the repository benchmark's timing wrapper plug
// into. The concrete index keeps its allocation-free Append* forms,
// Tuple, Entries and Config; those are not part of what a backend must
// provide.
type Resident interface {
	// Len returns the number of resident reference tuples (distinct
	// join keys).
	Len() int
	// Upsert applies keyed reference maintenance, returning inserted
	// and updated counts. A local index applies in memory and never
	// fails; a remote one (the cluster view) can lose a node mid-write,
	// and a non-nil error means the batch was not acknowledged.
	Upsert(tuples []relation.Tuple) (inserted, updated int, err error)
	// Probe matches one key: Exact by equality (the SHJoin probe),
	// Approx by q-gram similarity (the SSHJoin probe), key-equal matches
	// always included with similarity 1.
	Probe(mode Mode, key string) []RefMatch
	// ProbeBatch probes every key under one mode, one result per key in
	// order, semantically identical to a loop of Probe calls.
	ProbeBatch(mode Mode, keys []string) [][]RefMatch
}

var _ Resident = (*ShardedRefIndex)(nil)
