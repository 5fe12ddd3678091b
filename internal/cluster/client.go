package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptivelink"
	"adaptivelink/internal/normalize"
	"adaptivelink/internal/shardmap"
	"adaptivelink/internal/stream"
	"adaptivelink/internal/wire"
)

// ErrNodeUnavailable marks a batch that could not complete because a
// node group had no answering replica (or a node answered with a
// non-retryable failure). The service maps it to the v1 envelope code
// "node_unavailable"; the batch fails as a whole — the router never
// returns silent partial results.
var ErrNodeUnavailable = errors.New("cluster node unavailable")

// Config configures the fan-out client.
type Config struct {
	// Map is the cluster routing table (required, validated by New).
	Map Map
	// WriteTimeout bounds each node call of a maintenance fan-out
	// (create, upsert, delete, snapshot); probes inherit the request
	// context instead. Default 30s.
	WriteTimeout time.Duration
	// HTTPClient issues the node requests (default: a plain client; the
	// per-request context carries the deadline).
	HTTPClient *http.Client

	// WriteQuorum is the per-group write acknowledgement threshold: a
	// fan-out succeeds once this many replicas of each touched group
	// acknowledged; the rest converge via hinted handoff. 0 selects a
	// majority (len(replicas)/2+1 — every write with a single replica
	// per group, matching the pre-quorum behaviour); values above the
	// replica count clamp to it. Below-quorum fails the batch whole, and
	// no hints are queued: the caller retries the batch.
	WriteQuorum int
	// HintCapacity bounds the writes queued for replay on each replica's
	// convergence queue. A replica whose queue would overflow is past the
	// hint horizon: its queued writes collapse into one re-seed entry per
	// index (a full snapshot stream from a clean peer, run by the same
	// drainer) instead of being silently dropped. Default 512.
	HintCapacity int
	// ProbeInterval enables the active /healthz prober feeding the
	// per-replica circuit breakers. <=0 disables it (the default —
	// breakers still learn passively from live traffic); the daemon
	// enables it via -cluster-probe-interval.
	ProbeInterval time.Duration
	// RepairInterval enables the background anti-entropy loop: digest
	// comparison that queues a re-seed on every replica diverged in a way
	// the write path cannot see (a lost disk, a write around the router).
	// <=0 disables it (the default); the daemon enables it via
	// -cluster-repair-interval. Missed writes and overflowed queues
	// converge without it; a pass can also be driven explicitly via
	// Client.Repair.
	RepairInterval time.Duration
}

// Client is the cluster fan-out client: it holds the routing table, the
// per-index sequencing state that defines global merge order, and the
// HTTP plumbing. One Client serves many concurrent requests; per-request
// state lives in the Views it binds.
type Client struct {
	cfg    Config
	ranges []shardmap.NodeRange
	// rr holds one round-robin cursor per group for replica selection.
	rr []atomic.Uint64

	mu      sync.RWMutex
	indexes map[string]*indexState

	// reps mirrors Map.Groups with per-replica resilience state (circuit
	// breaker, convergence queue, observed digests, request counts);
	// byAddr indexes it for the transport layer, one entry per replica
	// (Map.Validate refuses a URL listed twice). New fills both for every
	// replica of the map, so callers index them without a check.
	reps   [][]*replicaState
	byAddr map[string]*replicaState

	// ctx/cancel/wg scope the background goroutines (queue drainers, the
	// prober, the anti-entropy loop); Close cancels and waits.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// Self-healing counts, exported by Counts; breakerTo counts
	// transitions into each breaker state.
	hintsQueued, hintsReplayed, hintsDropped atomic.Int64
	repairsHint, repairsResync               atomic.Int64
	breakerTo                                [3]atomic.Int64
}

// indexState is the router-side state of one cluster index: the
// key→sequence map that mirrors the single-process global-ref
// assignment — key K has sequence seq[K] iff a single-process index fed
// the same create/upsert stream would store K at global ref seq[K].
// Merge order derives from it, which is what makes cluster results
// byte-identical to the single-process engine.
type indexState struct {
	name string

	mu  sync.RWMutex
	seq map[string]int
	// keys holds the bytes of seq's keys: a key arrives as a string of
	// the request it came in, which the sequence must not keep alive.
	keys keyBlocks
}

// keyBlocks copies keys into shared blocks, so a key a map keeps pins
// neither the string it was read from nor an allocation of its own.
// Blocks grow with what they hold, up to keyBlockMax bytes.
type keyBlocks struct {
	b    *strings.Builder // the current block
	held int
}

const keyBlockMax = 64 << 10

// own returns a copy of k in the current block.
func (kb *keyBlocks) own(k string) string {
	if kb.b == nil || kb.b.Cap()-kb.b.Len() < len(k) {
		kb.b = new(strings.Builder)
		kb.b.Grow(max(len(k), min(keyBlockMax, max(256, kb.held))))
	}
	kb.held += len(k)
	off := kb.b.Len()
	kb.b.WriteString(k)
	// The block is never written below its length again, so the
	// builder's string of it (not a copy) stays unchanged.
	return kb.b.String()[off:]
}

// New validates the map and builds a client.
func New(cfg Config) (*Client, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.HintCapacity <= 0 {
		cfg.HintCapacity = 512
	}
	c := &Client{
		cfg:     cfg,
		ranges:  cfg.Map.Ranges(),
		rr:      make([]atomic.Uint64, len(cfg.Map.Groups)),
		indexes: make(map[string]*indexState),
		byAddr:  make(map[string]*replicaState),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.reps = make([][]*replicaState, len(cfg.Map.Groups))
	for g, reps := range cfg.Map.Groups {
		c.reps[g] = make([]*replicaState, len(reps))
		for i, addr := range reps {
			rs := newReplicaState(g, addr)
			c.reps[g][i] = rs
			c.byAddr[addr] = rs
		}
	}
	if cfg.ProbeInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	if cfg.RepairInterval > 0 {
		c.wg.Add(1)
		go c.repairLoop()
	}
	return c, nil
}

// quorum returns group g's effective write quorum.
func (c *Client) quorum(g int) int {
	n := len(c.cfg.Map.Groups[g])
	q := c.cfg.WriteQuorum
	if q <= 0 {
		return n/2 + 1
	}
	if q > n {
		return n
	}
	return q
}

// Counts is the router's cumulative request and self-healing counts,
// read at once for /metrics.
type Counts struct {
	// Nodes holds each replica's node requests by outcome.
	Nodes []NodeCounts
	// HintsQueued, HintsReplayed and HintsDropped count writes queued
	// for replay, replayed, and dropped from replay into a re-seed.
	HintsQueued, HintsReplayed, HintsDropped int64
	// RepairsHint and RepairsResync count completed replays and re-seeds.
	RepairsHint, RepairsResync int64
	// BreakerOpen, BreakerHalfOpen and BreakerClosed count breaker
	// transitions into each state, across all replicas.
	BreakerOpen, BreakerHalfOpen, BreakerClosed int64
}

// NodeCounts is one replica's node requests: answered 2xx (OK), or
// failed in transport or answered otherwise (Err).
type NodeCounts struct {
	Addr    string
	OK, Err int64
}

// Counts reads the router's counts.
func (c *Client) Counts() Counts {
	out := Counts{
		HintsQueued: c.hintsQueued.Load(), HintsReplayed: c.hintsReplayed.Load(), HintsDropped: c.hintsDropped.Load(),
		RepairsHint: c.repairsHint.Load(), RepairsResync: c.repairsResync.Load(),
		BreakerOpen:     c.breakerTo[breakerOpen].Load(),
		BreakerHalfOpen: c.breakerTo[breakerHalfOpen].Load(),
		BreakerClosed:   c.breakerTo[breakerClosed].Load(),
	}
	for _, reps := range c.reps {
		for _, rs := range reps {
			out.Nodes = append(out.Nodes, NodeCounts{Addr: rs.addr, OK: rs.ok.Load(), Err: rs.errs.Load()})
		}
	}
	return out
}

// Map returns the routing table.
func (c *Client) Map() Map { return c.cfg.Map }

// groupLabel names group g in error texts by the half-open range of
// key-hash shards it owns: the keys with shardmap.ShardOf in that range
// are stored there and nowhere else.
func (c *Client) groupLabel(g int) string {
	return fmt.Sprintf("group %d (shards %d-%d) of the key-hash space", g, c.ranges[g].Lo, c.ranges[g].Hi)
}

// Names returns the registered cluster indexes, sorted.
func (c *Client) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.indexes))
	for n := range c.indexes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (c *Client) state(name string) (*indexState, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st, ok := c.indexes[name]
	return st, ok
}

// CreateIndex builds a routed index: the standard facade over a
// maintenance view of the cluster, so the router runs the probe,
// session and normalization code a single process runs, which is what
// keeps routed answers byte-identical. The facade resolves and
// validates opts, reporting the cluster's logical shard count, and the
// rows are read from src as a bulk load reads them (stream.Adopt), to
// the last, before any node is contacted: a source that fails creates
// nothing. Each row is prepared as soon as it is read, while later ones
// may still be decoding: its key normalised under the index's profile,
// as the facade normalises an upsert's, the row appended to its home
// group's upsert body, and its key's sequence entry staged. The rows
// keep the IDs src gives them. The index is then created empty on
// every replica of every group and each group is sent its body, so the
// rows land on the owning nodes' write-ahead logs like any other write
// (a node builds its first rows as a bulk load); the staged sequence is
// published once every group acknowledged. Nodes are created with
// profile "": the router owns normalization and nodes index the
// already-normalised keys verbatim. A failed create or load is rolled
// back on the replicas it reached (see rollback) and leaves nothing
// registered, so the name can be created again; a replica that already
// held the name keeps its index.
func (c *Client) CreateIndex(name string, opts adaptivelink.IndexOptions, src adaptivelink.Source) (*adaptivelink.Index, error) {
	c.mu.Lock()
	if _, dup := c.indexes[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: index %q already registered", name)
	}
	st := &indexState{name: name, seq: make(map[string]int)}
	c.indexes[name] = st
	c.mu.Unlock()

	opts.Shards = c.cfg.Map.Shards
	ix, err := adaptivelink.NewRemoteIndex(&View{c: c, st: st}, opts)
	if err != nil {
		c.unregister(name)
		return nil, err
	}
	ro := ix.Options()
	norm, err := normalize.ProfileNamed(ro.Profile) // vetted by the facade
	if err != nil {
		c.unregister(name)
		return nil, err
	}
	rows, ready := stream.Adopt(src)
	bodies := make([]wire.UpsertEncoder, len(c.cfg.Map.Groups))
	seq := make(map[string]int, len(rows))
	var keys keyBlocks
	done := 0
	for hi, err := range ready {
		if err != nil {
			c.unregister(name)
			return nil, err
		}
		for _, t := range rows[done:hi] {
			t.Key = norm.Apply(t.Key)
			bodies[c.cfg.Map.home(t.Key)].Add(wire.TupleDTO(t))
			if _, ok := seq[t.Key]; !ok {
				seq[keys.own(t.Key)] = len(seq)
			}
		}
		if done == 0 && hi < len(rows) {
			// Reserve each body's size as the first rows predict it, so
			// it grows once, not whenever an append outgrows it.
			for g := range bodies {
				bodies[g].Grow(bodies[g].Len() * (len(rows) - hi) / hi * 17 / 16)
			}
		}
		done = hi
	}
	// Node shards are pinned to the router's local default so every
	// replica of a group builds the identical shard layout: content
	// digests are compared byte-for-byte across replicas by anti-entropy,
	// and a heterogeneous default would read as permanent divergence.
	req := wire.CreateIndexRequest{
		Name: name, Q: ro.Q, Theta: ro.Theta, Measure: ro.Measure.String(),
		Shards: runtime.GOMAXPROCS(0),
		Tuples: []wire.TupleDTO{},
	}
	reached, err := c.fanOutAll(name, http.MethodPost, "/v1/indexes", req, http.StatusCreated)
	if err == nil {
		err = c.upsertGroups(name, bodies)
	}
	if err != nil {
		if rerr := c.rollback(name, reached); rerr != nil {
			err = errors.Join(err, fmt.Errorf("cluster: rolling back the create of %q: %w", name, rerr))
		}
		c.unregister(name)
		return nil, err
	}
	st.mu.Lock()
	st.seq, st.keys = seq, keys
	st.mu.Unlock()
	return ix, nil
}

// rollback deletes a failed create's index from the replicas the create
// reached (reached is its fanOutAll report), and from no other: a
// replica that refused the create with 409 held the name before this
// create and keeps its index. A reached replica that misses the delete
// (deferred behind what it still owes, the create itself included, or
// unreachable) gets it queued for replay. The error names the replicas
// that refused the delete.
func (c *Client) rollback(name string, reached [][]bool) error {
	del := hint{index: name, method: http.MethodDelete, path: "/v1/indexes/" + name,
		ok: []int{http.StatusNoContent, http.StatusNotFound}}
	var errs []error
	for g, reps := range reached {
		for i, made := range reps {
			if !made {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.WriteTimeout)
			acked, hard, _ := c.writeReplica(ctx, g, i, del.method, del.path, nil, del.ok)
			cancel()
			if hard != nil {
				errs = append(errs, hard)
			} else if !acked {
				c.enqueue(g, i, del)
			}
		}
	}
	return errors.Join(errs...)
}

// unregister drops an index's routing state.
func (c *Client) unregister(name string) {
	c.mu.Lock()
	delete(c.indexes, name)
	c.mu.Unlock()
}

// DeleteIndex fans the delete out to every replica and unregisters the
// index. Node-side not_found is tolerated (a crashed earlier delete may
// have half-completed); transport failures are not.
func (c *Client) DeleteIndex(name string) error {
	if _, ok := c.state(name); !ok {
		return fmt.Errorf("cluster: index %q not registered", name)
	}
	_, err := c.fanOutAll(name, http.MethodDelete, "/v1/indexes/"+name, nil, http.StatusNoContent, http.StatusNotFound)
	if err != nil {
		return err
	}
	c.unregister(name)
	return nil
}

// SnapshotIndex checkpoints the index on every replica of every group.
func (c *Client) SnapshotIndex(name string) error {
	if _, ok := c.state(name); !ok {
		return fmt.Errorf("cluster: index %q not registered", name)
	}
	_, err := c.fanOutAll(name, http.MethodPost, "/v1/indexes/"+name+"/snapshot", nil, http.StatusOK)
	return err
}

// fanOutAll issues the same request to every replica of every group,
// concurrently, with the write timeout per call. index names the index
// the operation belongs to (the unit its queue entries collapse by).
// Any group falling below quorum fails the fan-out (wrapped in
// ErrNodeUnavailable for transport errors). reached[g] is group g's
// groupWrite report of the replicas the request reached.
func (c *Client) fanOutAll(index, method, path string, payload any, okStatuses ...int) (reached [][]bool, err error) {
	raw, err := marshalPayload(payload)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	reached = make([][]bool, len(c.cfg.Map.Groups))
	errs := make([]error, len(c.cfg.Map.Groups))
	for g := range c.cfg.Map.Groups {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reached[g], errs[g] = c.groupWrite(g, index, method, path, raw, okStatuses...)
		}(g)
	}
	wg.Wait()
	return reached, errors.Join(errs...)
}

// groupWrite issues one maintenance request to EVERY replica of a group
// concurrently and succeeds once the group's write quorum acknowledged.
// Replicas that missed the write (transport failure, open breaker, or
// entries already queued — order is the contract) get the write queued
// for in-order replay. A replica that answers but semantically refuses
// fails the batch whole: that is divergence, not unavailability, and
// must surface. Below quorum the batch fails whole with an error naming
// the group and its hash range, and nothing is queued — the caller
// retries the batch. raw is the encoded body (nil for none); queued
// writes replay it as is, so no caller may modify it afterwards.
// reached reports, per replica, whether the write was applied there or
// is queued for it: every replica when the write succeeds, the replicas
// that acknowledged it when it fails.
func (c *Client) groupWrite(g int, index, method, path string, raw []byte, okStatuses ...int) (reached []bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.WriteTimeout)
	defer cancel()
	reps := c.cfg.Map.Groups[g]
	type outcome struct {
		acked bool
		hard  error // semantic refusal: fail the batch whole
		miss  error // transport failure or deferral: hintable
	}
	outs := make([]outcome, len(reps))
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i].acked, outs[i].hard, outs[i].miss = c.writeReplica(ctx, g, i, method, path, raw, okStatuses)
		}(i)
	}
	wg.Wait()

	reached = make([]bool, len(reps))
	acks := 0
	var miss, hard error
	for i := range outs {
		reached[i] = outs[i].acked
		switch {
		case outs[i].hard != nil:
			hard = outs[i].hard
		case outs[i].acked:
			acks++
		case miss == nil:
			miss = outs[i].miss
		}
	}
	if hard != nil {
		return reached, hard
	}
	if q := c.quorum(g); acks < q {
		return reached, fmt.Errorf("%w: %s: %d of %d replicas acknowledged %s %s (quorum %d): %v",
			ErrNodeUnavailable, c.groupLabel(g), acks, len(reps), method, path, q, miss)
	}
	// Quorum met: the batch is durable. Queue the missed replicas' copies
	// for in-order replay so the group converges.
	for i := range outs {
		if !outs[i].acked {
			c.enqueue(g, i, hint{index: index, method: method, path: path, payload: raw, ok: okStatuses})
			reached[i] = true
		}
	}
	return reached, nil
}

// writeReplica issues one maintenance request to replica i of group g
// and reports whether the replica applied it (acked), refused it (hard:
// divergence, not unavailability) or missed it (miss: a transport
// failure, or deferred behind the writes the replica still owes — order
// is the contract).
func (c *Client) writeReplica(ctx context.Context, g, i int, method, path string, raw []byte, okStatuses []int) (acked bool, hard, miss error) {
	addr := c.cfg.Map.Groups[g][i]
	if c.reps[g][i].behind(c) {
		return false, nil, fmt.Errorf("%s: deferred behind queued hints", addr)
	}
	status, body, err := c.doRaw(ctx, addr, method, path, raw, "application/json")
	if err != nil {
		return false, nil, fmt.Errorf("%s: %v", addr, err)
	}
	if statusIn(okStatuses, status) {
		return true, nil, nil
	}
	return false, fmt.Errorf("%w: %s: %s %s%s: node answered %d: %s",
		ErrNodeUnavailable, c.groupLabel(g), method, addr, path, status, envelopeMessage(body)), nil
}

// marshalPayload pre-marshals a JSON payload (nil stays nil) so hints
// replay byte-identical requests.
func marshalPayload(payload any) ([]byte, error) {
	if payload == nil {
		return nil, nil
	}
	return json.Marshal(payload)
}

// doRaw issues one node request with a pre-encoded body, counts it, and
// feeds the replica's circuit breaker: a transport failure is a breaker
// strike; any HTTP answer (even an error status) proves liveness. The
// one failure that says nothing about the replica is a link request
// running out of its own budget (a context from Bind): a slow answer to
// a short timeout_ms is the caller's choice, not the node's fault. The
// context carries the deadline (the request budget on the probe path,
// the write timeout on maintenance paths).
func (c *Client) doRaw(ctx context.Context, addr, method, path string, raw []byte, contentType string) (int, []byte, error) {
	var rd io.Reader
	if raw != nil {
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, addr+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if raw != nil && contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rs := c.byAddr[addr]
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		rs.errs.Add(1)
		if ctx.Err() == nil || ctx.Value(requestBudget{}) == nil {
			rs.noteFailure(c)
		}
		return 0, nil, err
	}
	defer resp.Body.Close()
	rs.noteSuccess(c)
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		rs.ok.Add(1)
	} else {
		rs.errs.Add(1)
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// NodeHealth is one replica's health as probed by Health, plus the
// router's resilience state for it: circuit-breaker position, the
// length of its convergence queue (hints_pending: writes to replay plus
// re-seeds to run — 0 means the router knows of nothing it lacks), the
// indexes with a re-seed queued (needs_resync), and the content digests
// last observed by anti-entropy.
type NodeHealth struct {
	Addr         string            `json:"addr"`
	Healthy      bool              `json:"healthy"`
	Breaker      string            `json:"breaker,omitempty"`
	HintsPending int               `json:"hints_pending,omitempty"`
	NeedsResync  []string          `json:"needs_resync,omitempty"`
	Digests      map[string]string `json:"digests,omitempty"`
}

// GroupHealth is one node group's replica health and the half-open
// range [shard_lo, shard_hi) of key-hash shards it owns: a key is stored
// on the group whose range holds shardmap.ShardOf(key, Map.Shards), and
// only there.
type GroupHealth struct {
	Lo       int          `json:"shard_lo"`
	Hi       int          `json:"shard_hi"`
	Replicas []NodeHealth `json:"replicas"`
}

// Health probes every replica's /healthz concurrently (1s timeout per
// probe, bounded by ctx) and returns the routing table with liveness.
func (c *Client) Health(ctx context.Context) []GroupHealth {
	out := make([]GroupHealth, len(c.cfg.Map.Groups))
	var wg sync.WaitGroup
	for g, reps := range c.cfg.Map.Groups {
		out[g] = GroupHealth{Lo: c.ranges[g].Lo, Hi: c.ranges[g].Hi, Replicas: make([]NodeHealth, len(reps))}
		for i, addr := range reps {
			wg.Add(1)
			go func(g, i int, addr string) {
				defer wg.Done()
				hctx, cancel := context.WithTimeout(ctx, time.Second)
				defer cancel()
				status, _, err := c.doRaw(hctx, addr, http.MethodGet, "/healthz", nil, "")
				nh := NodeHealth{Addr: addr, Healthy: err == nil && status == http.StatusOK}
				rs := c.reps[g][i]
				rs.mu.Lock()
				nh.Breaker = rs.effectiveBreaker(c).String()
				nh.HintsPending = len(rs.hints)
				for _, q := range rs.hints {
					if q.reseed {
						nh.NeedsResync = append(nh.NeedsResync, q.index)
					}
				}
				sort.Strings(nh.NeedsResync)
				if len(rs.digests) > 0 {
					nh.Digests = make(map[string]string, len(rs.digests))
					for k, v := range rs.digests {
						nh.Digests[k] = v
					}
				}
				rs.mu.Unlock()
				out[g].Replicas[i] = nh
			}(g, i, addr)
		}
	}
	wg.Wait()
	return out
}

// envelopeMessage extracts the error envelope's message for diagnosis,
// falling back to the raw body.
func envelopeMessage(body []byte) string {
	var env wire.ErrorDTO
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		return env.Error.Code + ": " + env.Error.Message
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return string(body)
}

// envelopeCode returns the envelope code of a non-2xx body ("" if the
// body is not an envelope).
func envelopeCode(body []byte) string {
	var env wire.ErrorDTO
	if json.Unmarshal(body, &env) == nil {
		return env.Error.Code
	}
	return ""
}
