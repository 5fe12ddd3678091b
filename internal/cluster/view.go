package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/wire"
)

// View is a join.Resident over the cluster: the router's probe sessions
// and upserts run against it exactly as they would against a local
// ShardedRefIndex. A View carries one request's context (per-node
// deadlines inherit the request budget) and its sticky transport error:
// the Resident probe methods cannot return errors, so the first failure
// is recorded, subsequent probes short-circuit to empty results, and
// the caller checks TransportErr before trusting the session — the
// batch then fails as a whole, never silently partially.
//
// Bind a fresh View per request; a View is safe for the single
// session's use, not for sharing across requests.
type View struct {
	c  *Client
	st *indexState
	// ctx is the request context; nil selects a per-call write-timeout
	// context (the maintenance view CreateIndex wraps in the facade).
	ctx context.Context

	mu  sync.Mutex
	err error
}

// Bind returns a request-scoped view of the named cluster index.
func (c *Client) Bind(ctx context.Context, name string) (*View, error) {
	st, ok := c.state(name)
	if !ok {
		return nil, fmt.Errorf("cluster: index %q not registered", name)
	}
	return &View{c: c, st: st, ctx: context.WithValue(ctx, requestBudget{}, true)}, nil
}

// requestBudget tags the contexts Bind hands to the probe path: their
// expiry is the link request's own budget running out, which doRaw must
// not count against the replica that was still answering.
type requestBudget struct{}

var _ join.Resident = (*View)(nil)

// TransportErr reports the first fan-out failure of this view's
// probes (nil when every probe completed against every group it
// needed).
func (v *View) TransportErr() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

func (v *View) setErr(err error) {
	v.mu.Lock()
	if v.err == nil {
		v.err = err
	}
	v.mu.Unlock()
}

func (v *View) failed() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err != nil
}

// Len returns the number of distinct resident keys: the keys the
// groups reported inserting, which is the single-process key
// population, so the adaptive control loop sees the same n either way.
func (v *View) Len() int { return int(v.st.n.Load()) }

// --- writes ---

// Upsert applies keyed reference maintenance across the cluster: each
// tuple is sent to its home group only (Map.home — the group exact
// probes ask), to ALL replicas of that group, so the write lands once on
// the owning nodes' write-ahead logs. The counts are the groups' own:
// a key lives on one group, so their sum is what a single process
// reports. Any group below quorum fails the batch with
// ErrNodeUnavailable; the failure is returned, never recorded on the
// view, so it cannot poison the view's probes.
func (v *View) Upsert(tuples []relation.Tuple) (inserted, updated int, err error) {
	if len(tuples) == 0 {
		return 0, 0, nil
	}
	m := v.c.cfg.Map
	bodies := make([]wire.UpsertEncoder, len(m.Groups))
	for _, t := range tuples {
		bodies[m.home(t.Key)].Add(wire.TupleDTO(t))
	}
	return v.c.upsertGroups(v.st, bodies)
}

// upsertGroups sends every group with a tuple in bodies its upsert
// body, the groups concurrently, each to all its replicas (groupWrite),
// and returns the summed counts of the groups' answers and the first
// group's error, if any. A group's counts are those of its replica that
// reported the most inserts: a replica that already held rows of the
// batch took them from an earlier attempt that failed below quorum,
// which counted nothing. The index's size advances by what each group
// that acknowledged reported inserting, also when another group
// failed: those rows are on the nodes, and a retry of the batch
// reports them as updated.
func (c *Client) upsertGroups(st *indexState, bodies []wire.UpsertEncoder) (inserted, updated int, err error) {
	var wg sync.WaitGroup
	counts := make([]wire.UpsertResponse, len(bodies))
	errs := make([]error, len(bodies))
	for g := range bodies {
		if bodies[g].Len() == 0 {
			continue
		}
		raw := bodies[g].Bytes()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, acks, err := c.groupWrite(g, st.name, http.MethodPost, "/v1/indexes/"+st.name+"/upsert", raw, http.StatusOK)
			for i := 0; i < len(acks) && err == nil; i++ {
				var r wire.UpsertResponse
				if json.Unmarshal(acks[i], &r) != nil {
					err = fmt.Errorf("%w: %s: undecodable upsert response %.200q", ErrNodeUnavailable, c.groupLabel(g), acks[i])
				} else if i == 0 || r.Inserted > counts[g].Inserted {
					counts[g] = r
				}
			}
			if errs[g] = err; err == nil {
				st.n.Add(int64(counts[g].Inserted))
			}
		}()
	}
	wg.Wait()
	for g := range counts {
		inserted += counts[g].Inserted
		updated += counts[g].Updated
	}
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return inserted, updated, nil
}

// --- probes ---

// Probe matches one key: by equality on its home group, or by
// similarity on every group, each answering from its disjoint slice of
// the reference.
func (v *View) Probe(mode join.Mode, key string) []join.RefMatch {
	return v.probeGroups(mode, []string{key})[0]
}

// ProbeBatch probes every key under one mode, one result per key in
// order — the fan-out form of the local batch probe: one node request
// per group, groups queried concurrently. An exact batch is split by
// home group; an approximate batch goes whole to EVERY group (one
// encoded body, shared), because a similar reference may be homed
// anywhere.
func (v *View) ProbeBatch(mode join.Mode, keys []string) [][]join.RefMatch {
	return v.probeGroups(mode, keys)
}

func (v *View) probeGroups(mode join.Mode, keys []string) [][]join.RefMatch {
	results := make([][]join.RefMatch, len(keys))
	if len(keys) == 0 || v.failed() {
		return results
	}
	ctx := v.ctx
	if ctx == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), v.c.cfg.WriteTimeout)
		defer cancel()
	}
	req := wire.LinkRequestDTO{Index: v.st.name, Strategy: "exact"}
	if dl, ok := ctx.Deadline(); ok {
		req.TimeoutMillis = max(1, int(time.Until(dl)/time.Millisecond))
	}

	m := v.c.cfg.Map
	nG := len(m.Groups)
	// subs[g] is the key slice group g is asked (empty: not asked) and
	// bodies[g] its encoded request; idx[g] maps an exact sub-batch's
	// positions back to key positions.
	subs := make([][]string, nG)
	bodies := make([][]byte, nG)
	idx := make([][]int, nG)
	var err error
	if mode == join.Approx {
		req.Strategy, req.Keys = "approximate", keys
		var raw []byte
		raw, err = json.Marshal(req)
		for g := range subs {
			subs[g], bodies[g] = keys, raw
		}
	} else {
		for i, key := range keys {
			g := m.home(key)
			subs[g] = append(subs[g], key)
			idx[g] = append(idx[g], i)
		}
		for g := 0; g < nG && err == nil; g++ {
			if len(subs[g]) > 0 {
				req.Keys = subs[g]
				bodies[g], err = json.Marshal(req)
			}
		}
	}
	if err != nil {
		v.setErr(err)
		return results
	}

	perGroup := make([][][]join.RefMatch, nG)
	gerrs := make([]error, nG)
	var wg sync.WaitGroup
	for g := 0; g < nG; g++ {
		if len(subs[g]) == 0 {
			continue
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			perGroup[g], gerrs[g] = v.groupLink(ctx, g, mode, bodies[g], len(subs[g]))
		}(g)
	}
	wg.Wait()
	for _, e := range gerrs {
		if e != nil {
			v.setErr(e)
			return results
		}
	}

	if mode == join.Exact {
		for g := range idx {
			for j, i := range idx[g] {
				results[i] = perGroup[g][j]
			}
		}
		return results
	}
	answers := make([][]join.RefMatch, nG)
	for i := range keys {
		for g := range answers {
			answers[g] = perGroup[g][i]
		}
		results[i] = m.merge(answers)
	}
	return results
}

// merge combines one approximate key's per-group answers (answers[g] is
// group g's) into the single-process answer: keep only the matches
// group g is home to, then order them by join.CompareMatches, the order
// a single process gives them. Groups hold disjoint key sets, so there
// is nothing to dedup; the home filter is what keeps that true over
// nodes populated by a release that also placed keys on their signature
// groups — those non-home copies stop being maintained and must never
// answer.
func (m Map) merge(answers [][]join.RefMatch) []join.RefMatch {
	n := 0
	for _, ms := range answers {
		n += len(ms)
	}
	all := make([]join.RefMatch, 0, n)
	for g, ms := range answers {
		for _, rm := range ms {
			if m.home(rm.Ref.Key) == g {
				all = append(all, rm)
			}
		}
	}
	if len(all) == 0 {
		return nil // a miss reads as nil, as a local probe's does
	}
	slices.SortFunc(all, join.CompareMatches)
	return all
}

// groupLink sends one encoded /v1/link body (n keys) to one group,
// failing over across its replicas (starting round-robin) on transport
// errors and draining nodes. A node-reported deadline becomes
// context.DeadlineExceeded — the budget is spent cluster-wide, exactly
// as a local batch would time out. Any other node-reported envelope, or
// a group with no answering replica, is ErrNodeUnavailable.
func (v *View) groupLink(ctx context.Context, g int, mode join.Mode, body []byte, n int) ([][]join.RefMatch, error) {
	reps := v.c.cfg.Map.Groups[g]
	start := int(v.c.rr[g].Add(1)-1) % len(reps)
	// Prefer clean replicas: one that is behind (entries queued, or an
	// open breaker) is known to be missing acknowledged writes, so it
	// answers only as the last resort — availability over freshness when
	// nobody clean responds.
	order := make([]int, 0, len(reps))
	var dirty []int
	for i := 0; i < len(reps); i++ {
		ri := (start + i) % len(reps)
		if v.c.reps[g][ri].behind(v.c) {
			dirty = append(dirty, ri)
			continue
		}
		order = append(order, ri)
	}
	order = append(order, dirty...)
	var lastErr error
	for _, ri := range order {
		addr := reps[ri]
		status, resp, err := v.c.doRaw(ctx, addr, http.MethodPost, "/v1/link", body, "application/json")
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			lastErr = fmt.Errorf("%s: %v", addr, err)
			continue
		}
		if status == http.StatusOK {
			var dto wire.LinkResponseDTO
			if err := json.Unmarshal(resp, &dto); err != nil {
				return nil, fmt.Errorf("%w: %s: undecodable link response: %v", ErrNodeUnavailable, addr, err)
			}
			if len(dto.Results) != n {
				return nil, fmt.Errorf("%w: %s answered %d results for %d keys", ErrNodeUnavailable, addr, len(dto.Results), n)
			}
			out := make([][]join.RefMatch, n)
			for j, kr := range dto.Results {
				out[j] = toRefMatches(kr.Matches)
			}
			return out, nil
		}
		switch envelopeCode(resp) {
		case wire.CodeDeadline:
			return nil, context.DeadlineExceeded
		case wire.CodeDraining:
			lastErr = fmt.Errorf("%s: draining", addr)
			continue
		default:
			return nil, fmt.Errorf("%w: %s answered %d: %s", ErrNodeUnavailable, addr, status, envelopeMessage(resp))
		}
	}
	need := "the home of this batch's keys"
	if mode == join.Approx {
		need = "an approximate probe needs every group"
	}
	return nil, fmt.Errorf("%w: %s: no answering replica (%s): %v", ErrNodeUnavailable, v.c.groupLabel(g), need, lastErr)
}

// toRefMatches rebuilds RefMatch values from the wire form.
func toRefMatches(ms []wire.MatchDTO) []join.RefMatch {
	if len(ms) == 0 {
		return nil
	}
	out := make([]join.RefMatch, len(ms))
	for i, m := range ms {
		out[i] = join.RefMatch{
			Ref:        relation.Tuple{ID: m.RefID, Key: m.RefKey, Attrs: m.RefAttrs},
			Similarity: m.Similarity,
			Exact:      m.Exact,
		}
	}
	return out
}
