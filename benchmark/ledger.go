package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"adaptivelink"
	"adaptivelink/internal/adaptive"
	"adaptivelink/internal/cluster"
	"adaptivelink/internal/hashidx"
	"adaptivelink/internal/join"
	"adaptivelink/internal/normalize"
	"adaptivelink/internal/obs"
	"adaptivelink/internal/qgram"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/service"
	"adaptivelink/internal/shardmap"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/store"
)

// The traced run. Its per-layer numbers come from outside the program:
//
//	(a) an in-process replay of the workload's first requests through
//	    successively lower public entry points — HTTP handler, Service.Link,
//	    facade session, the resident engine behind a timing decorator, and
//	    the kernels — one span per call, written to out/<workload>.trace.json;
//	(b) the real daemons' /metrics deltas and forced X-Debug-Trace spans
//	    over a short two-client phase.
//
// End-to-end metrics are never taken here.

// ledgerRequests is how many of the workload's link requests the
// in-process replay walks through every level.
const ledgerRequests = 160

// routedRequests of them are also replayed through an in-process
// two-group cluster.
const routedRequests = 60

var traceOff = obs.Config{SampleEvery: -1, SlowThreshold: -1}

// residentCall is one probe call a session made on the resident engine.
type residentCall struct {
	span, req int
	mode      join.Mode
	keys      []string
}

// timedResident decorates a join.Resident through the public
// Index.WithResident/NewRemoteIndex seam: every probe the facade issues
// is counted and recorded as a child of the current session span.
type timedResident struct {
	join.Resident
	rec         *recorder
	parent, req int
	calls       []residentCall
}

func (t *timedResident) note(id int, mode join.Mode, keys []string) {
	t.rec.end(id)
	t.calls = append(t.calls, residentCall{span: id, req: t.req, mode: mode, keys: keys})
}

func (t *timedResident) ProbeBatch(mode join.Mode, keys []string) [][]join.RefMatch {
	id := t.rec.begin("join.resident", t.parent, t.req, len(keys))
	out := t.Resident.ProbeBatch(mode, keys)
	t.note(id, mode, keys)
	return out
}

func (t *timedResident) Probe(mode join.Mode, key string) []join.RefMatch {
	id := t.rec.begin("join.resident", t.parent, t.req, 1)
	out := t.Resident.Probe(mode, key)
	t.note(id, mode, []string{key})
	return out
}

func (t *timedResident) ProbeExact(key string) []join.RefMatch { return t.Probe(join.Exact, key) }

func (t *timedResident) ProbeApprox(key string) []join.RefMatch { return t.Probe(join.Approx, key) }

// kernels is the unsharded kernel set the resident calls are replayed
// on: the two Fig. 3 hash structures over the same reference keys, the
// extractor, the router and the measure, called one layer at a time.
type kernels struct {
	rec    *recorder
	ex     *qgram.Extractor
	exact  *hashidx.ExactIndex
	grams  *hashidx.QGramIndex
	router *shardmap.PrefixRouter
	dsc    qgram.Scratch
	psc    hashidx.ProbeScratch

	decomposeNs, routesNs, lookupNs, probeNs, verifyNs int64
	decomposed, grammed, routed, routeShards           int
	looked, probed, candidates, verified               int
}

func newKernels(rec *recorder, keys []string) *kernels {
	ex := qgram.New(indexQ)
	k := &kernels{
		rec: rec, ex: ex, exact: hashidx.NewExactIndex(), grams: hashidx.NewQGramIndex(ex),
		router: shardmap.NewPrefixRouter(indexShards, indexQ, simfn.Jaccard, indexTheta),
	}
	for ref, key := range keys {
		k.exact.Insert(ref, key)
		k.grams.Insert(ref, key)
	}
	return k
}

// replay runs the kernel sequence of one resident call, a span per
// layer, as children of parent.
func (k *kernels) replay(mode join.Mode, keys []string, parent, req int) {
	timed := func(name string, total *int64, fn func()) {
		id := k.rec.begin(name, parent, req, len(keys))
		fn()
		k.rec.end(id)
		*total += k.rec.spans[id-1].dur()
	}
	if mode == join.Exact {
		timed("hashidx.exact_lookup", &k.lookupNs, func() {
			for _, key := range keys {
				k.looked++
				sink += len(k.exact.Lookup(key))
			}
		})
		return
	}
	k.dsc.Reset()
	qk := make([]qgram.Key, len(keys))
	timed("qgram.decompose", &k.decomposeNs, func() {
		for i, key := range keys {
			qk[i] = k.ex.Decompose(&k.dsc, key)
		}
	})
	k.decomposed += len(keys)
	for _, q := range qk {
		k.grammed += q.Len()
	}
	var routes []int
	timed("shardmap.routes", &k.routesNs, func() {
		for i, key := range keys {
			routes = k.router.RoutesKey(routes[:0], key, qk[i])
			k.routeShards += len(routes)
		}
	})
	k.routed += len(keys)
	type cand struct{ g, size, overlap int }
	var cands []cand
	timed("hashidx.qgram_probe", &k.probeNs, func() {
		for _, q := range qk {
			g := q.Len()
			for _, c := range k.grams.ProbeKey(q, simfn.Jaccard.MinOverlap(g, indexTheta), &k.psc) {
				cands = append(cands, cand{g, k.grams.GramSize(c.Ref), c.Overlap})
			}
		}
	})
	k.probed += len(keys)
	k.candidates += len(cands)
	timed("simfn.verify", &k.verifyNs, func() {
		for _, c := range cands {
			if _, ok := simfn.Jaccard.Verify(c.g, c.size, c.overlap, indexTheta); ok {
				k.verified++
			}
		}
	})
}

// sink keeps calls whose result nothing else uses from being elided.
var sink int

// resetTotals forgets what a warm-up replay accumulated.
func (k *kernels) resetTotals(rec *recorder) {
	*k = kernels{rec: rec, ex: k.ex, exact: k.exact, grams: k.grams, router: k.router, dsc: k.dsc, psc: k.psc}
}

func perUnit(total int64, units int, scale float64) float64 {
	if units == 0 {
		return 0
	}
	return float64(total) / float64(units) / scale
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runTraced is the --trace 1 invocation: the plain run first, for the
// timings (tracing off, as always), then the ledger.
func runTraced(e env, w workload, seed int64, seconds float64) (*outcome, error) {
	o, err := runEndToEnd(e, w, seed, seconds)
	if err != nil {
		return nil, err
	}
	l, err := runLedger(e, w, seed, seconds)
	if err != nil {
		return nil, err
	}
	for name, s := range l.Metrics {
		o.Metrics[name] = s
	}
	o.Attempted += l.Attempted
	o.Failed += l.Failed
	o.errs = append(o.errs, l.errs...)
	o.Correct = o.Correct && l.Correct
	return o, nil
}

// runLedger produces the per-layer metrics of one workload.
func runLedger(e env, w workload, seed int64, seconds float64) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the daemons' setting
	o := &outcome{Metrics: metricSet{}}
	sched, err := buildSchedule(w, seed, w.tailBatches+minUpserts, e.scale)
	if err != nil {
		return nil, err
	}
	norm, err := normalize.ProfileNamed(indexProf)
	if err != nil {
		return nil, err
	}
	// The replayed requests are spread evenly over the request cycle: a
	// bursty stream's first requests are not its average ones.
	reqs := spread(sched.links, e.count(ledgerRequests))
	rec := newRecorder()
	nKeys := len(reqs) * w.linkBatch

	// The chain handler → link → session → resident → kernels. Each
	// request walks all five levels back to back, so drift in the host's
	// speed falls on every level alike; an unrecorded pass warms pools
	// and caches first. The service is durable, like the daemons, so it
	// loads the reference through the same bulk path, and the engine
	// under the session is built by that path too, from keys in their
	// indexed form.
	scratch, err := os.MkdirTemp(e.outDir, "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	svc := service.New(service.Config{Workers: 2, Trace: traceOff, DataDir: filepath.Join(scratch, "service"), WALSync: adaptivelink.SyncAlways})
	defer svc.Close()
	if _, err := svc.CreateIndex(indexName, indexOptions(), sched.parents); err != nil {
		return nil, err
	}
	handler := service.NewHandler(svc)
	serve := func(h http.Handler, body []byte) (*httptest.ResponseRecorder, error) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/link", bytes.NewReader(body)))
		if rw.Code != http.StatusOK {
			return rw, fmt.Errorf("in-process handler answered %d: %s", rw.Code, clip(rw.Body.Bytes()))
		}
		return rw, nil
	}
	cfg := join.Config{Q: indexQ, Theta: indexTheta, Measure: simfn.Jaccard, Initial: join.LexRex, Profile: indexProf}
	normed := make([]relation.Tuple, len(sched.parents))
	refKeys := make([]string, len(sched.parents))
	for i, t := range sched.parents {
		refKeys[i] = norm.Apply(t.Key)
		normed[i] = relation.Tuple{ID: i, Key: refKeys[i], Attrs: t.Attrs}
	}
	t0 := time.Now()
	engine, err := join.BuildShardedRefIndex(cfg, indexShards, normed)
	if err != nil {
		return nil, err
	}
	o.set("join.build_s", "s", time.Since(t0).Seconds(), 1)
	tres := &timedResident{Resident: engine}
	facade, err := adaptivelink.NewRemoteIndex(tres, indexOptions())
	if err != nil {
		return nil, err
	}
	strategy, err := service.ParseStrategy(w.strategy)
	if err != nil {
		return nil, err
	}
	kern := newKernels(nil, refKeys)
	handlerSpan := make([]int, len(reqs))
	var reqBytes, respBytes int64
	var cost float64
	var escalations, switches int
	for _, into := range []*recorder{newRecorder(), rec} {
		runtime.GC()
		tres.rec, tres.calls = into, nil
		kern.resetTotals(into)
		reqBytes, respBytes, cost, escalations, switches = 0, 0, 0, 0, 0
		for r, req := range reqs {
			id := into.begin("service.handler", 0, r, len(req.keys))
			rw, err := serve(handler, req.body)
			into.end(id)
			if err != nil {
				return nil, err
			}
			handlerSpan[r] = id
			reqBytes += int64(len(req.body))
			respBytes += int64(rw.Body.Len())

			id = into.begin("service.link", id, r, len(req.keys))
			_, err = svc.Link(context.Background(), service.LinkRequest{Index: indexName, Keys: req.keys, Strategy: w.strategy})
			into.end(id)
			if err != nil {
				return nil, err
			}

			id = into.begin("adaptivelink.session", id, r, len(req.keys))
			tres.parent, tres.req = id, r
			first := len(tres.calls)
			sess, err := facade.NewSession(adaptivelink.SessionOptions{Strategy: strategy})
			if err != nil {
				return nil, err
			}
			sess.ProbeBatch(req.keys)
			into.end(id)
			st := sess.Stats()
			cost += st.ModelledCost
			escalations += st.Escalations
			switches += st.Switches

			for _, c := range tres.calls[first:] {
				kern.replay(c.mode, c.keys, c.span, c.req)
			}
		}
	}
	calls := tres.calls
	runtime.GC()
	m0 := mallocs()
	for _, req := range reqs {
		if _, err := serve(handler, req.body); err != nil {
			return nil, err
		}
	}
	allocs := mallocs() - m0

	var residentKeys, approxKeys int
	for _, c := range calls {
		residentKeys += len(c.keys)
		if c.mode == join.Approx {
			approxKeys += len(c.keys)
		}
	}
	// A mode the workload's sessions never used is replayed on a few
	// requests, outside the chain, so that every kernel has a number.
	for r, req := range reqs[:min(20, len(reqs))] {
		nk := applyAll(norm, req.keys)
		if kern.probed < 200 {
			kern.replay(join.Approx, nk, 0, r)
		}
		if kern.looked < 200 {
			kern.replay(join.Exact, nk, 0, r)
		}
	}
	t0 = time.Now()
	for _, req := range reqs {
		for _, key := range req.keys {
			sink += len(norm.Apply(key))
		}
	}
	normNs := time.Since(t0).Nanoseconds()

	// The chain's self times.
	spans := rec.spans
	self := selfTimes(spans)
	selfOf := func(name string) int64 { return sumByName(spans, name, func(s span) int64 { return self[s.ID] }) }
	durOf := func(name string) int64 { return sumByName(spans, name, span.dur) }
	nReq := len(reqs)
	handlerNs := durOf("service.handler")
	o.set("service.handler_us_per_req", "us", perUnit(handlerNs, nReq, 1e3), nReq)
	o.set("service.codec_self_us_per_req", "us", perUnit(selfOf("service.handler"), nReq, 1e3), nReq)
	o.set("service.pool_self_us_per_req", "us", perUnit(selfOf("service.link"), nReq, 1e3), nReq)
	o.set("service.req_bytes_per_key", "B", ratio(float64(reqBytes), float64(nKeys)), nKeys)
	o.set("service.resp_bytes_per_key", "B", ratio(float64(respBytes), float64(nKeys)), nKeys)
	o.set("service.allocs_per_req", "count", ratio(float64(allocs), float64(nReq)), nReq)
	o.set("adaptivelink.session_us_per_key", "us", perUnit(durOf("adaptivelink.session"), nKeys, 1e3), nKeys)
	o.set("adaptivelink.control_self_us_per_key", "us", perUnit(selfOf("adaptivelink.session"), nKeys, 1e3), nKeys)
	o.set("adaptivelink.approx_probe_share", "ratio", ratio(float64(approxKeys), float64(residentKeys)), residentKeys)
	o.set("adaptivelink.wasted_probe_ratio", "ratio", ratio(float64(residentKeys-nKeys), float64(nKeys)), nKeys)
	o.set("adaptive.cost_per_key", "ratio", ratio(cost, float64(nKeys)), nKeys)
	o.set("adaptive.escalations_per_1k_keys", "count", 1000*ratio(float64(escalations), float64(nKeys)), nKeys)
	o.set("adaptive.switches_per_1k_keys", "count", 1000*ratio(float64(switches), float64(nKeys)), nKeys)
	o.set("normalize.apply_ns_per_key", "ns", perUnit(normNs, nKeys, 1), nKeys)
	o.set("qgram.decompose_ns_per_key", "ns", perUnit(kern.decomposeNs, kern.decomposed, 1), kern.decomposed)
	o.set("qgram.grams_per_key", "count", ratio(float64(kern.grammed), float64(kern.decomposed)), kern.decomposed)
	o.set("shardmap.routes_ns_per_key", "ns", perUnit(kern.routesNs, kern.routed, 1), kern.routed)
	o.set("shardmap.shards_per_approx_probe", "count", ratio(float64(kern.routeShards), float64(kern.routed)), kern.routed)
	o.set("hashidx.exact_lookup_ns_per_key", "ns", perUnit(kern.lookupNs, kern.looked, 1), kern.looked)
	o.set("hashidx.qgram_probe_us_per_key", "us", perUnit(kern.probeNs, kern.probed, 1e3), kern.probed)
	o.set("hashidx.candidates_per_probe", "count", ratio(float64(kern.candidates), float64(kern.probed)), kern.probed)
	o.set("simfn.verify_ns_per_candidate", "ns", perUnit(kern.verifyNs, kern.candidates, 1), kern.candidates)
	o.set("simfn.match_per_candidate_ratio", "ratio", ratio(float64(kern.verified), float64(kern.candidates)), kern.candidates)
	o.set("join.self_us_per_key", "us", perUnit(selfOf("join.resident"), nKeys, 1e3), nKeys)
	residentNs := durOf("join.resident")
	fmt.Fprintf(e.log, "%s: replayed %d requests; handler %.1fus = codec %.1f + pool %.1f + control %.1f + join %.1f + kernels %.1f; resident share of handler %.3f\n",
		w.name, nReq, perUnit(handlerNs, nReq, 1e3),
		perUnit(selfOf("service.handler"), nReq, 1e3), perUnit(selfOf("service.link"), nReq, 1e3),
		perUnit(selfOf("adaptivelink.session"), nReq, 1e3), perUnit(selfOf("join.resident"), nReq, 1e3),
		perUnit(residentNs-selfOf("join.resident"), nReq, 1e3), ratio(float64(residentNs), float64(handlerNs)))

	// The layers below the chain, called directly.
	ledgerJoin(o, w, sched, engine, norm, reqs)
	if err := ledgerAdaptive(o, kern, norm, reqs); err != nil {
		return nil, err
	}
	if err := ledgerStore(scratch, o, w, sched, engine); err != nil {
		return nil, err
	}
	if err := ledgerCluster(e, scratch, o, sched, rec, calls, reqs, handlerSpan); err != nil {
		return nil, err
	}
	if err := ledgerDaemons(e, o, w, sched, reqs, seconds, perUnit(handlerNs, nReq, 1e3)); err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(e.outDir, w.name+".trace.json")); err != nil {
		return nil, err
	}
	o.Correct = o.Failed == 0 && len(o.errs) == 0 && len(o.Metrics.missing(ledger)) == 0
	return o, nil
}

// spread picks n requests at even intervals over the cycle.
func spread(links []linkReq, n int) []linkReq {
	if n >= len(links) {
		return links
	}
	out := make([]linkReq, n)
	for i := range out {
		out[i] = links[i*len(links)/n]
	}
	return out
}

func applyAll(n *normalize.Normalizer, keys []string) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = n.Apply(k)
	}
	return out
}

// ledgerJoin times the resident engine's own entry points: batch probes
// in both modes, then upsert batches for the copy-on-write counters.
func ledgerJoin(o *outcome, w workload, sched *schedule, engine *join.ShardedRefIndex, norm *normalize.Normalizer, reqs []linkReq) {
	var exactNs, approxNs int64
	var exactKeys, approxKeys int
	for r, req := range reqs {
		nk := applyAll(norm, req.keys)
		t0 := time.Now()
		engine.ProbeBatch(join.Exact, nk)
		exactNs += time.Since(t0).Nanoseconds()
		exactKeys += len(nk)
		if r < 30 {
			t0 = time.Now()
			engine.ProbeBatch(join.Approx, nk)
			approxNs += time.Since(t0).Nanoseconds()
			approxKeys += len(nk)
		}
	}
	o.set("join.probe_exact_ns_per_key", "ns", perUnit(exactNs, exactKeys, 1), exactKeys)
	o.set("join.probe_approx_us_per_key", "us", perUnit(approxNs, approxKeys, 1e3), approxKeys)

	before := engine.MaintStats()
	n := min(w.tailBatches, len(sched.upserts))
	t0 := time.Now()
	for _, u := range sched.upserts[:n] {
		ts := make([]relation.Tuple, len(u.tuples))
		for i, t := range u.tuples {
			ts[i] = relation.Tuple{ID: t.ID, Key: norm.Apply(t.Key), Attrs: t.Attrs}
		}
		engine.Upsert(ts)
	}
	upsertNs := time.Since(t0).Nanoseconds()
	after := engine.MaintStats()
	o.set("join.upsert_ms_per_batch", "ms", perUnit(upsertNs, n, 1e6), n)
	o.set("join.clone_ms_per_upsert", "ms", perUnit(after.CloneNanos-before.CloneNanos, n, 1e6), n)
	o.set("join.snapshot_swaps_per_upsert", "count", ratio(float64(after.SnapshotSwaps-before.SnapshotSwaps), float64(n)), n)
	o.set("join.scratch_miss_ratio", "ratio", ratio(float64(after.ScratchNews), float64(after.ScratchGets)), int(after.ScratchGets))
}

// ledgerAdaptive times the control loop alone: one loop per request,
// fed the outcomes an exact pass over the request's keys produces.
func ledgerAdaptive(o *outcome, kern *kernels, norm *normalize.Normalizer, reqs []linkReq) error {
	var ns int64
	var keys int
	for _, req := range reqs {
		outs := make([]adaptive.BatchOutcome, len(req.keys))
		for i, key := range req.keys {
			outs[i].Hit = len(kern.exact.Lookup(norm.Apply(key))) > 0
		}
		loop, err := adaptive.NewProbeLoop(adaptive.DefaultProbeParams())
		if err != nil {
			return err
		}
		t0 := time.Now()
		for rest := outs; len(rest) > 0; {
			consumed, escalate := loop.NoteBatch(kern.exact.Entries(), rest)
			if escalate {
				loop.NoteEscalation(true, 1)
			}
			rest = rest[consumed:]
		}
		ns += time.Since(t0).Nanoseconds()
		keys += len(outs)
	}
	o.set("adaptive.note_batch_ns_per_key", "ns", perUnit(ns, keys, 1), keys)
	return nil
}

// ledgerStore times the storage layer through the facade's durable
// constructors and the snapshot codec directly.
func ledgerStore(scratch string, o *outcome, w workload, sched *schedule, engine *join.ShardedRefIndex) error {
	opts := indexOptions()
	opts.Storage = adaptivelink.StorageOptions{Dir: filepath.Join(scratch, "store"), WALSync: adaptivelink.SyncAlways}
	ix, err := adaptivelink.BulkLoad(adaptivelink.FromTuples(sched.parents), opts)
	if err != nil {
		return err
	}
	n := min(w.tailBatches, len(sched.upserts))
	for _, u := range sched.upserts[:n] {
		if _, _, err := ix.Upsert(u.tuples...); err != nil {
			return err
		}
	}
	st, _ := ix.StorageStats()
	o.set("store.wal_append_ms_mean", "ms", 1e3*ratio(st.WALAppendSeconds, float64(st.WALAppends)), int(st.WALAppends))
	o.set("store.wal_fsync_ms_mean", "ms", 1e3*ratio(st.WALFsyncSeconds, float64(st.WALAppends)), int(st.WALAppends))
	if info, err := os.Stat(filepath.Join(opts.Storage.Dir, store.WALFile)); err == nil {
		o.set("store.wal_bytes_per_tuple", "B", ratio(float64(info.Size()), float64(n*upsertBatch)), n*upsertBatch)
	}
	if err := ix.Close(); err != nil {
		return err
	}
	// Reopen on the log tail, checkpoint, reopen on the bare snapshot:
	// the difference is what replaying the tail costs.
	open := func() (*adaptivelink.Index, float64, error) {
		t0 := time.Now()
		ix, err := adaptivelink.Open(opts.Storage.Dir, adaptivelink.IndexOptions{})
		return ix, time.Since(t0).Seconds(), err
	}
	ix, withTail, err := open()
	if err != nil {
		return err
	}
	if err := ix.Save(""); err != nil {
		return err
	}
	if err := ix.Close(); err != nil {
		return err
	}
	ix, bare, err := open()
	if err != nil {
		return err
	}
	if err := ix.Close(); err != nil {
		return err
	}
	o.set("store.open_replay_ms_per_batch", "ms", 1e3*ratio(withTail-bare, float64(n)), n)

	view, err := engine.ExportSnapshot()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := store.WriteSnapshot(&buf, view); err != nil {
		return err
	}
	o.set("store.snapshot_encode_s", "s", time.Since(t0).Seconds(), 1)
	o.set("store.snapshot_bytes_per_tuple", "B", ratio(float64(buf.Len()), float64(engine.Len())), engine.Len())
	runtime.GC()
	m0 := mallocs()
	t0 = time.Now()
	if _, err := store.DecodeSnapshot(buf.Bytes()); err != nil {
		return err
	}
	o.set("store.snapshot_decode_s", "s", time.Since(t0).Seconds(), 1)
	o.set("store.snapshot_decode_allocs", "count", float64(mallocs()-m0), 1)
	return nil
}

// nodeTimer records a span around a node's handler while a routed
// replay is under way (parent != 0), as a child of the router-side span.
type nodeTimer struct {
	h      http.Handler
	rec    *recorder
	parent *atomic.Int64
}

func (n nodeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := int(n.parent.Load())
	if parent == 0 {
		n.h.ServeHTTP(w, r)
		return
	}
	id := n.rec.begin("cluster.node_handler", parent, 0, 0)
	n.h.ServeHTTP(w, r)
	n.rec.end(id)
}

// ledgerCluster replays the workload's requests through an in-process
// router over two durable node services behind loopback HTTP servers.
func ledgerCluster(e env, scratch string, o *outcome, sched *schedule, rec *recorder, calls []residentCall, reqs []linkReq, handlerSpan []int) error {
	var parent atomic.Int64
	var urls []string
	for i := 0; i < 2; i++ {
		node := service.New(service.Config{Workers: 2, Trace: traceOff, DataDir: filepath.Join(scratch, fmt.Sprint("node", i)), WALSync: adaptivelink.SyncAlways})
		defer node.Close()
		srv := httptest.NewServer(nodeTimer{h: service.NewHandler(node), rec: rec, parent: &parent})
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	cmap, err := cluster.ParseSpec(urls[0]+";"+urls[1], 8)
	if err != nil {
		return err
	}
	client, err := cluster.New(cluster.Config{Map: cmap})
	if err != nil {
		return err
	}
	router := service.New(service.Config{Workers: 2, Trace: traceOff, Cluster: client})
	defer router.Close()
	if _, err := router.CreateIndex(indexName, indexOptions(), sched.parents); err != nil {
		return err
	}
	routed := service.NewHandler(router)
	metricsOf := func() scrape {
		var buf bytes.Buffer
		router.WriteMetrics(&buf)
		return parseExposition(buf.String())
	}

	reqs = reqs[:min(e.count(routedRequests), len(reqs))]
	var routedNs, singleNs int64
	var before, after scrape
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		before = metricsOf()
		routedNs = 0
		for _, req := range reqs {
			t0 := time.Now()
			rw := httptest.NewRecorder()
			routed.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/link", bytes.NewReader(req.body)))
			routedNs += time.Since(t0).Nanoseconds()
			if rw.Code != http.StatusOK {
				return fmt.Errorf("in-process router answered %d: %s", rw.Code, clip(rw.Body.Bytes()))
			}
		}
		after = metricsOf()
	}
	for r := range reqs {
		singleNs += rec.spans[handlerSpan[r]-1].dur()
	}
	const nodeReqs = "adaptivelink_cluster_node_requests_total"
	o.set("cluster.routed_single_ratio", "ratio", ratio(float64(singleNs), float64(routedNs)), len(reqs))
	o.set("cluster.node_requests_per_link", "count", ratio(delta(before, after, nodeReqs, `outcome="ok"`), float64(len(reqs))), len(reqs))

	// The view alone: the resident calls the sessions made, sent through
	// the fan-out client, with the node handlers as children.
	var viewKeys, groups, routedKeys int
	var viewSpans []int
	prefix := shardmap.NewPrefixRouter(cmap.Shards, indexQ, simfn.Jaccard, indexTheta)
	var route []int
	for _, c := range calls {
		if c.req >= len(reqs) {
			continue
		}
		view, err := client.Bind(context.Background(), indexName)
		if err != nil {
			return err
		}
		id := rec.begin("cluster.view_probe", 0, c.req, len(c.keys))
		parent.Store(int64(id))
		view.ProbeBatch(c.mode, c.keys)
		parent.Store(0)
		rec.end(id)
		if err := view.TransportErr(); err != nil {
			return err
		}
		viewSpans = append(viewSpans, id)
		viewKeys += len(c.keys)
	}
	// Groups an approximate probe fans out to, over every replayed key:
	// routing is a property of the key, whichever mode a session chose.
	for _, req := range reqs {
		for _, key := range req.truth {
			seen := map[int]bool{}
			route = prefix.Routes(route[:0], key)
			for _, sh := range route {
				seen[cmap.GroupOf(sh)] = true
			}
			groups += len(seen)
			routedKeys++
		}
	}
	self := selfTimes(rec.spans)
	var viewNs, viewSelf int64
	for _, id := range viewSpans {
		viewNs += rec.spans[id-1].dur()
		viewSelf += self[id]
	}
	o.set("cluster.view_probe_us_per_key", "us", perUnit(viewNs, viewKeys, 1e3), viewKeys)
	o.set("cluster.fanout_self_us_per_req", "us", perUnit(viewSelf, len(reqs), 1e3), len(viewSpans))
	o.set("cluster.groups_per_approx_key", "count", ratio(float64(groups), float64(routedKeys)), routedKeys)

	n := min(16, len(sched.upserts))
	t0 := time.Now()
	for _, u := range sched.upserts[:n] {
		if _, _, err := router.Upsert(indexName, u.tuples); err != nil {
			return err
		}
	}
	o.set("cluster.write_fanout_ms_per_upsert", "ms", perUnit(time.Since(t0).Nanoseconds(), n, 1e6), n)
	after = metricsOf()
	o.set("cluster.hints_queued", "count", after.sum("adaptivelink_cluster_hints_total", `outcome="queued"`), 1)
	o.set("cluster.node_errors", "count", after.sum(nodeReqs, `outcome="error"`), 1)
	return nil
}

// ledgerDaemons takes what only the real daemons can give: queue wait
// and GC pauses under the two-client load, the transport's share of a
// request, the daemon's own span shares and the cost of tracing.
func ledgerDaemons(e env, o *outcome, w workload, sched *schedule, reqs []linkReq, seconds, handlerUS float64) (err error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	f, _, err := setUp(e, w, sched, hc)
	if f != nil {
		// The daemons' logs stay behind when this phase failed.
		defer func() { f.close(err != nil || o.Failed > 0) }()
	}
	if err != nil {
		return err
	}
	base := f.entry().url()
	clients := func(n int, header http.Header, id func(int) string) []*stream {
		out := linkClients(base, sched, w.linkBatch, n)
		for _, c := range out {
			c.header, c.id = header, id
		}
		return out
	}
	note := func(logs []*opLog) (rate float64, lat []float64) {
		for _, l := range logs {
			o.count(l.attempted(), l.failed, l.firstErr)
			rate += l.rate()
			lat = append(lat, l.latMS...)
		}
		return rate, lat
	}
	// The five measured segments carry the workload's own mix; a mixed
	// workload swaps one link client for the upsert client.
	mix := clients(2, nil, nil)
	if w.mixed {
		mix = []*stream{clients(1, nil, nil)[0], upsertClient(base, sched)}
	}
	seg := time.Duration(seconds / 10 * float64(time.Second))
	runSegment(hc, clients(2, nil, nil), seg/2, 0) // warm-up

	before, err := fetchMetrics(hc, base)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var rates, lat []float64
	for i := 0; i < segments; i++ {
		logs := runSegment(hc, mix, seg, 0)
		if w.mixed {
			note(logs[1:]) // upserts: counted, not rated
			logs = logs[:1]
		}
		r, l := note(logs)
		rates = append(rates, r)
		lat = append(lat, l...)
	}
	elapsed := time.Since(t0).Seconds()
	after, err := fetchMetrics(hc, base)
	if err != nil {
		return err
	}
	const wait = "adaptivelink_link_queue_wait_seconds"
	o.set("service.queue_wait_ms_mean", "ms", 1e3*ratio(delta(before, after, wait+"_sum"), delta(before, after, wait+"_count")), int(delta(before, after, wait+"_count")))
	o.set("service.gc_pause_ms_per_s", "ms/s", 1e3*ratio(delta(before, after, "adaptivelink_gc_pause_seconds_total"), elapsed), int(delta(before, after, "adaptivelink_gc_cycles_total")))
	p99, ok := percentile(sortedCopy(lat), 0.99)
	smp := sample{Value: p99, Unit: "ms", N: len(lat)}
	if !ok {
		smp.Note = fmt.Sprintf("fewer than %d samples beyond it", minBeyond)
	}
	o.Metrics["benchmark.link_p99_ms"] = smp
	o.set("benchmark.segment_spread_pct", "%", 100*rangeSpread(rates), len(rates))

	// One client replays exactly the requests the in-process handler
	// served; what the daemon's latency adds to the handler's time is
	// transport: sockets, net/http and the client.
	same := &stream{url: base + "/v1/link", units: w.linkBatch, stride: 1, cyclic: true}
	for _, r := range reqs {
		same.reqs = append(same.reqs, r.body)
	}
	runSegment(hc, []*stream{same}, 0, len(reqs)) // warm-up
	_, one := note(runSegment(hc, []*stream{same}, 0, len(reqs)))
	o.set("service.transport_self_us_per_req", "us", 1e3*mean(one)-handlerUS, len(one))

	// Tracing forced on every request against tracing off, alternating.
	forced := http.Header{"X-Debug-Trace": {"1"}}
	var plain, traced []float64
	var ids []string
	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			r, _ := note(runSegment(hc, clients(2, nil, nil), seg/2, 0))
			plain = append(plain, r)
			continue
		}
		tag := fmt.Sprintf("bench-%d-", i)
		logs := runSegment(hc, clients(2, forced, func(n int) string { return tag + fmt.Sprint(n) }), seg/2, 0)
		r, _ := note(logs)
		traced = append(traced, r)
		for _, l := range logs {
			for _, n := range l.sent[max(0, len(l.sent)-20):] {
				ids = append(ids, tag+fmt.Sprint(n))
			}
		}
	}
	o.set("obs.trace_overhead_pct", "%", 100*(1-ratio(median(traced), median(plain))), len(traced))
	share := map[string]float64{}
	var total float64
	fetched := 0
	for _, id := range ids {
		resp, err := hc.Get(base + "/v1/debug/requests/" + id)
		if err != nil {
			return err
		}
		var tr obs.Trace
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			continue // overwritten in the daemon's ring
		}
		fetched++
		total += tr.DurMillis
		for _, s := range tr.Spans {
			share[s.Name] += s.DurMillis
		}
	}
	for _, name := range []string{"queue", "session", "probe", "merge"} {
		o.set("service.span_"+name+"_share", "ratio", ratio(share[name], total), fetched)
	}
	return nil
}
