package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adaptivelink"
)

// Self-healing machinery: every replica the router knows carries a
// replicaState — a circuit breaker fed by every request's transport
// outcome, the digests anti-entropy last observed, and ONE convergence
// queue, drained in order by one goroutine. Everything the router knows
// the replica to lack is an entry in that queue, of one of two kinds:
//
//   - a write: one request the replica missed while a quorum acknowledged
//     it, replayed byte-identical (hinted handoff);
//   - a re-seed: "replace your copy of index X with a peer's snapshot
//     stream" — export from the source, POST …/resync on the replica.
//
// Three detectors feed it:
//
//  1. Missed write: groupWrite queues the write for every replica that
//     did not acknowledge it.
//  2. Overflow or refusal: a queue already holding HintCapacity writes
//     (the replica was gone past the hint horizon), or a replayed write
//     the replica semantically refuses, collapses the affected indexes'
//     queued writes into one re-seed entry each — replaying around a gap
//     would apply a gapped sequence.
//  3. Digest mismatch: anti-entropy compares per-replica content digests,
//     elects the reference copy and queues a re-seed on every dissenting
//     or blank replica (a lost disk, a write applied around the router, a
//     torn recovery). It only detects; the drainer repairs.
//
// A replica with a non-empty queue is "behind": new writes skip it and
// queue at the tail, so a write acknowledged while a re-seed is running
// replays after it — nothing acknowledged is ever dropped on the floor —
// and reads prefer its clean peers.

// breakerState is a replica's circuit-breaker position.
type breakerState int

const (
	// breakerClosed: the replica answers; requests flow normally.
	breakerClosed breakerState = iota
	// breakerOpen: consecutive transport failures; writes skip the
	// replica (straight to hints) until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen: cooldown elapsed; the next request is the trial
	// that closes the breaker (success) or re-opens it (failure).
	breakerHalfOpen
)

func (b breakerState) String() string {
	switch b {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

const (
	// breakerFailThreshold consecutive transport failures open the
	// breaker.
	breakerFailThreshold = 3
	// breakerCooldown is how long an open breaker rejects writes before
	// allowing the half-open trial.
	breakerCooldown = 500 * time.Millisecond
	// hintBackoffMin/Max bound the drainer's exponential backoff between
	// replay attempts against a replica that is still down.
	hintBackoffMin = 25 * time.Millisecond
	hintBackoffMax = time.Second
)

// hint is one entry of a replica's convergence queue: a missed write to
// replay, or (reseed) a whole-index re-seed from a peer.
type hint struct {
	// id is the entry's replica-local enqueue number: the drainer
	// retires the head only if it is still the entry it executed.
	id int64
	// index names the index the entry converges — the unit writes
	// collapse into a re-seed by.
	index string

	// reseed marks a re-seed entry; from is the replica of the same group
	// anti-entropy elected as its source (-1: any clean peer).
	reseed bool
	from   int
	// again is set when a write is collapsed into this re-seed: an export
	// already in flight may predate that write, so the entry runs once
	// more before it retires.
	again bool

	// A write entry's request. payload is the pre-marshaled JSON body (nil
	// for bodyless ops), so replay sends byte-identical requests; ok lists
	// the statuses that count as applied — the same tolerance the original
	// fan-out used (a delete finding nothing left to delete has converged,
	// not failed).
	method  string
	path    string
	payload []byte
	ok      []int
}

// replicaState is the router's per-replica resilience state.
type replicaState struct {
	addr  string
	group int
	// ok and errs count the node requests doRaw issued to the replica,
	// by outcome.
	ok, errs atomic.Int64

	mu       sync.Mutex
	breaker  breakerState
	fails    int       // consecutive transport failures
	openedAt time.Time // when the breaker last opened

	// hints is the convergence queue — the only record of what the
	// replica lacks. At most one re-seed per index is queued, ahead of
	// every queued write of that index.
	hints      []hint
	lastHintID int64
	draining   bool // a drainer goroutine owns the queue

	// digests holds the last content digest observed per index by the
	// anti-entropy loop, for /v1/cluster visibility.
	digests map[string]string
}

func newReplicaState(g int, addr string) *replicaState {
	return &replicaState{addr: addr, group: g, digests: make(map[string]string)}
}

// noteSuccess records transport-level contact (any HTTP response, even
// an error status, proves the replica is reachable).
func (rs *replicaState) noteSuccess(c *Client) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.fails = 0
	if rs.breaker != breakerClosed {
		rs.breaker = breakerClosed
		c.breakerTo[breakerClosed].Add(1)
	}
}

// noteFailure records a transport failure and trips the breaker at the
// threshold.
func (rs *replicaState) noteFailure(c *Client) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.fails++
	switch rs.breaker {
	case breakerClosed:
		if rs.fails >= breakerFailThreshold {
			rs.breaker = breakerOpen
			rs.openedAt = time.Now()
			c.breakerTo[breakerOpen].Add(1)
		}
	case breakerHalfOpen:
		// The trial failed; back to open with a fresh cooldown.
		rs.breaker = breakerOpen
		rs.openedAt = time.Now()
		c.breakerTo[breakerOpen].Add(1)
	}
}

// effectiveBreaker returns the breaker position, promoting open to
// half-open once the cooldown has elapsed. Call with rs.mu held.
func (rs *replicaState) effectiveBreaker(c *Client) breakerState {
	if rs.breaker == breakerOpen && time.Since(rs.openedAt) >= breakerCooldown {
		rs.breaker = breakerHalfOpen
		c.breakerTo[breakerHalfOpen].Add(1)
	}
	return rs.breaker
}

// behind reports whether the replica is known to be missing
// acknowledged writes — entries are queued for it — or its breaker is
// open. A quorum write skips a replica that is behind and goes straight
// to its queue (a new write must queue behind the earlier entries or
// arrive out of order); reads prefer its peers and keep it as the
// fallback — availability over freshness when no clean replica answers.
func (rs *replicaState) behind(c *Client) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.hints) > 0 || rs.effectiveBreaker(c) == breakerOpen
}

// enqueue adds one entry to a replica's convergence queue and makes sure
// a drainer owns it. A write arriving at a queue that already holds
// HintCapacity writes means the replica has been gone past the hint
// horizon: every queued write, the new one included, collapses into its
// index's re-seed entry instead of being replayed around a gap. A
// re-seed for an index that already has entries queued is dropped — the
// replica is already converging, and a digest read while the router knew
// it to be behind is not news.
func (c *Client) enqueue(g, i int, h hint) {
	rs := c.reps[g][i]
	rs.mu.Lock()
	defer rs.mu.Unlock()
	writes, known := 0, false
	for _, q := range rs.hints {
		if !q.reseed {
			writes++
		}
		known = known || q.index == h.index
	}
	switch {
	case h.reseed && known:
		return
	case !h.reseed && writes >= c.cfg.HintCapacity:
		rs.hints = append(rs.hints, h)
		c.hintsDropped.Add(int64(rs.collapse("")))
	default:
		rs.lastHintID++
		h.id = rs.lastHintID
		rs.hints = append(rs.hints, h)
		if !h.reseed {
			c.hintsQueued.Add(1)
		}
	}
	if !rs.draining {
		rs.draining = true
		c.wg.Add(1)
		go c.drain(rs)
	}
}

// collapse folds the queued writes of index (of every index when index
// is "") into re-seed entries, one per index, and returns how many
// writes left the queue: the snapshot stream carries them now. An index
// whose re-seed is already queued keeps that entry, flagged to run again
// in case its export has begun. Call with rs.mu held.
func (rs *replicaState) collapse(index string) (dropped int) {
	var gone []string
	kept := rs.hints[:0]
	for _, q := range rs.hints {
		if q.reseed || (index != "" && q.index != index) {
			kept = append(kept, q)
			continue
		}
		gone = append(gone, q.index)
	}
	rs.hints = kept
next:
	for _, name := range gone {
		for j := range rs.hints {
			if rs.hints[j].reseed && rs.hints[j].index == name {
				rs.hints[j].again = true
				continue next
			}
		}
		rs.lastHintID++
		rs.hints = append(rs.hints, hint{id: rs.lastHintID, index: name, reseed: true, from: -1})
	}
	return len(gone)
}

// drain executes a replica's queue in order — replay a write, or re-seed
// an index — with jittered exponential backoff while the replica (or,
// for a re-seed, every possible source) stays unreachable. It exits when
// the queue empties (counting one hint_replay repair if any write was
// replayed) or the client closes.
func (c *Client) drain(rs *replicaState) {
	defer c.wg.Done()
	backoff := hintBackoffMin
	replayed := 0
	for {
		rs.mu.Lock()
		if len(rs.hints) == 0 || c.ctx.Err() != nil {
			rs.draining = false
			rs.mu.Unlock()
			break
		}
		rs.hints[0].again = false // whatever was collapsed so far precedes this run's export
		h := rs.hints[0]
		rs.mu.Unlock()

		var err error
		refused := false
		if h.reseed {
			err = c.reseed(rs, h)
		} else {
			ctx, cancel := context.WithTimeout(c.ctx, c.cfg.WriteTimeout)
			var status int
			status, _, err = c.doRaw(ctx, rs.addr, h.method, h.path, h.payload, "application/json")
			cancel()
			refused = err == nil && !statusIn(h.ok, status)
		}
		if err != nil {
			// Still unreachable: back off (jittered so replicas of a
			// revived node do not replay in lockstep) and retry the same
			// entry — order is the contract.
			d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
			select {
			case <-time.After(d):
			case <-c.ctx.Done():
			}
			if backoff *= 2; backoff > hintBackoffMax {
				backoff = hintBackoffMax
			}
			continue
		}
		backoff = hintBackoffMin

		rs.mu.Lock()
		switch {
		case refused:
			// Semantic refusal: replaying further writes of this index
			// could interleave a gapped sequence. Collapse them all.
			c.hintsDropped.Add(int64(rs.collapse(h.index)))
		case len(rs.hints) == 0 || rs.hints[0].id != h.id || rs.hints[0].again:
			// Collapsed away mid-flight, or a write was collapsed into this
			// re-seed after its export began: the head runs (again).
		default:
			rs.hints = rs.hints[1:]
			if !h.reseed {
				replayed++
				c.hintsReplayed.Add(1)
			}
		}
		rs.mu.Unlock()
	}
	if replayed > 0 {
		c.repairsHint.Add(1)
	}
}

func statusIn(ok []int, status int) bool {
	for _, s := range ok {
		if s == status {
			return true
		}
	}
	return false
}

// probeLoop actively probes every replica's /healthz on the configured
// interval with Health's sweep, feeding the circuit breakers — so a
// revived replica is noticed (and its hints drained, its breaker
// closed) without waiting for live traffic to trip over it.
func (c *Client) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		c.Health(c.ctx) // doRaw feeds the breaker on both outcomes
	}
}

// repairLoop runs anti-entropy on the configured interval.
func (c *Client) repairLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		c.Repair(c.ctx)
	}
}

// Repair runs one anti-entropy detection pass over every registered
// index and every group: fetch each replica's content digest, elect the
// reference copy (modal digest; ties prefer more tuples, then a longer
// applied log, then the lower replica), and queue a re-seed from it on
// every reachable replica that disagrees — including a replica that
// answers but no longer has the index at all (a blank revived node
// bootstraps from the stream). It returns once the entries are queued;
// the replicas' drainers do the repairing, and /v1/cluster shows the
// entries as needs_resync until they retire. A replica that is behind
// sits the pass out — its queue is already converging it, and its
// digest is known to be stale: it neither votes nor is it re-seeded —
// as does one that does not answer.
//
// The background loop calls this on RepairInterval; tests and operators
// can call it directly for a deterministic pass. Overflow and refusal
// re-seeds do not wait for it.
func (c *Client) Repair(ctx context.Context) {
	for _, name := range c.Names() {
		for g := range c.cfg.Map.Groups {
			c.repairGroup(ctx, name, g)
		}
	}
}

// repairGroup is one (index, group) anti-entropy step.
func (c *Client) repairGroup(ctx context.Context, name string, g int) {
	reps := c.cfg.Map.Groups[g]
	type obs struct {
		alive  bool // answered HTTP (any status)
		has    bool // answered 200 with a digest
		digest adaptivelink.IndexDigest
	}
	seen := make([]obs, len(reps))
	var wg sync.WaitGroup
	for i, addr := range reps {
		if c.reps[g][i].behind(c) {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			dctx, cancel := context.WithTimeout(ctx, c.cfg.WriteTimeout)
			defer cancel()
			status, body, err := c.doRaw(dctx, addr, http.MethodGet, "/v1/indexes/"+name+"/digest", nil, "")
			if err != nil {
				return
			}
			seen[i].alive = true
			if status != http.StatusOK {
				return
			}
			var d adaptivelink.IndexDigest
			if json.Unmarshal(body, &d) == nil && d.Combined != "" {
				seen[i].has = true
				seen[i].digest = d
			}
		}(i, addr)
	}
	wg.Wait()

	// Elect the reference copy among replicas that reported a digest.
	votes := make(map[string]int)
	for i := range seen {
		if seen[i].has {
			votes[seen[i].digest.Combined]++
		}
	}
	if len(votes) == 0 {
		return // nobody reachable holds the index; nothing to repair from
	}
	ref := -1
	for i := range seen {
		if !seen[i].has {
			continue
		}
		if ref == -1 {
			ref = i
			continue
		}
		a, b := seen[i], seen[ref]
		switch {
		case votes[a.digest.Combined] != votes[b.digest.Combined]:
			if votes[a.digest.Combined] > votes[b.digest.Combined] {
				ref = i
			}
		case a.digest.Tuples != b.digest.Tuples:
			if a.digest.Tuples > b.digest.Tuples {
				ref = i
			}
		case a.digest.WALRecords > b.digest.WALRecords:
			ref = i
		}
	}

	for i := range reps {
		rs := c.reps[g][i]
		if !seen[i].alive {
			continue
		}
		if seen[i].has {
			rs.mu.Lock()
			rs.digests[name] = seen[i].digest.Combined
			rs.mu.Unlock()
			if seen[i].digest.Combined == seen[ref].digest.Combined {
				continue
			}
		}
		c.enqueue(g, i, hint{index: name, reseed: true, from: ref})
	}
}

// reseed executes one re-seed entry: stream a clean peer's snapshot of
// the index into the replica — the peer anti-entropy elected if it is
// (still) clean, else the first that is. A clean peer holds every write
// the group acknowledged; one that is behind does not, so with nobody
// clean the entry fails and the drainer backs off like for an
// unreachable replica. An index unregistered since has nothing left to
// converge to: the entry retires.
func (c *Client) reseed(rs *replicaState, h hint) error {
	if _, ok := c.state(h.index); !ok {
		return nil
	}
	peers := c.reps[rs.group]
	src := -1
	for i, p := range peers {
		if p != rs && !p.behind(c) && (src < 0 || i == h.from) {
			src = i
		}
	}
	if src < 0 {
		return fmt.Errorf("cluster: no clean peer to re-seed %q on %s from", h.index, rs.addr)
	}
	if err := c.resyncReplica(h.index, peers[src].addr, rs.addr); err != nil {
		return err
	}
	// The replica's last observed digest describes the copy just replaced.
	rs.mu.Lock()
	delete(rs.digests, h.index)
	rs.mu.Unlock()
	c.repairsResync.Add(1)
	return nil
}

// resyncReplica streams the index's snapshot from one replica into
// another.
func (c *Client) resyncReplica(name, from, to string) error {
	ectx, cancel := context.WithTimeout(c.ctx, c.cfg.WriteTimeout)
	defer cancel()
	status, blob, err := c.doRaw(ectx, from, http.MethodGet, "/v1/indexes/"+name+"/export", nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: export from %s answered %d", from, status)
	}
	rctx, cancel2 := context.WithTimeout(c.ctx, c.cfg.WriteTimeout)
	defer cancel2()
	status, body, err := c.doRaw(rctx, to, http.MethodPost, "/v1/indexes/"+name+"/resync", blob, "application/octet-stream")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: resync on %s answered %d: %s", to, status, envelopeMessage(body))
	}
	return nil
}

// Close stops the client's background goroutines (queue drainers, the
// health prober, the anti-entropy loop) and waits for them to exit.
// Queued entries are abandoned; anti-entropy on the next router start
// detects whatever they would have repaired.
func (c *Client) Close() {
	c.cancel()
	c.wg.Wait()
}
