package main

import (
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"
)

// env is what a run needs from its surroundings.
type env struct {
	bin    string    // the built adaptivelinkd
	outDir string    // benchmark/out
	log    io.Writer // progress, for a human
	// scale shrinks reference sizes and fixed counts; the smoke test
	// sets it, a measurement leaves it at 1.
	scale float64
}

func (e env) count(n int) int {
	if e.scale >= 1 {
		return n
	}
	return max(2, int(float64(n)*e.scale))
}

// outcome is one run's result: what the contract line carries, plus
// the errors behind every failed operation.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metricSet
	errs      []error
}

func (o *outcome) count(attempted, failed int, err error) {
	o.Attempted += attempted
	o.Failed += failed
	if err != nil {
		o.errs = append(o.errs, err)
	}
}

func (o *outcome) set(name, unit string, v float64, n int) {
	o.Metrics[name] = sample{Value: v, Unit: unit, N: n}
}

// setUp starts the workload's daemons, creates the index from the
// pre-encoded reference and waits for the first answered probe. It
// returns the fleet and how long that took.
func setUp(e env, w workload, s *schedule, hc *http.Client) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(e.bin, e.outDir, w.name, w.routed)
	if err != nil {
		return f, 0, err
	}
	status, body, _, err := post(hc, f.entry().url()+"/v1/indexes", s.createBody, nil, true)
	if err != nil || status != http.StatusCreated {
		return f, 0, fmt.Errorf("create index: status %d: %v %s", status, err, clip(body))
	}
	if _, err := f.entry().waitAnswer(hc, "/v1/link", s.probe); err != nil {
		return f, 0, err
	}
	return f, time.Since(t0), nil
}

// runEndToEnd measures one workload with tracing off and checks its
// answers. seconds is the timed budget: link segments plus upserts.
func runEndToEnd(e env, w workload, seed int64, seconds float64) (*outcome, error) {
	o := &outcome{Metrics: metricSet{}}
	maxUpserts := int(seconds*150) + minUpserts + w.tailBatches + 16
	sched, err := buildSchedule(w, seed, maxUpserts, e.scale)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(sched)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	// Set-up, repeated: the median is the metric, the last fleet serves.
	var f *fleet
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if f != nil {
			f.close(false)
		}
		var d time.Duration
		if f, d, err = setUp(e, w, sched, hc); err != nil {
			if f != nil {
				f.close(true)
			}
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	failedRun := true
	defer func() { f.close(failedRun) }()
	o.set("setup_s", "s", median(setups), len(setups))
	fmt.Fprintf(e.log, "%s: set up %d times, median %.3fs\n", w.name, len(setups), median(setups))

	base := f.entry().url()
	linkURL := base + "/v1/link"
	upserts := upsertClient(base, sched)
	links := linkClients(base, sched, w.linkBatch, 2)
	if w.mixed {
		links = links[:1] // the second client is the upsert client
		links[0].stride = 1
	}

	// Timed phases. A mixed workload runs both kinds side by side for
	// the whole budget; the others link first and upsert after.
	budget := time.Duration(seconds * float64(time.Second))
	linkDur := budget
	if !w.mixed {
		linkDur = time.Duration(seconds * w.linkShare * float64(time.Second))
	}
	segDur := linkDur / segments
	var linkLat, upsertLat, linkRates, upsertRates []float64
	var acked []int
	note := func(l *opLog, what string) {
		o.count(l.attempted(), l.failed, l.firstErr)
		if l.failed > 0 {
			fmt.Fprintf(e.log, "%s: %d %s requests failed: %v\n", w.name, l.failed, what, l.firstErr)
		}
	}
	noteUpserts := func(l *opLog) {
		note(l, "upsert")
		upsertLat = append(upsertLat, l.latMS...)
		upsertRates = append(upsertRates, l.rate())
		acked = append(acked, l.sent...)
	}
	streams := links
	if w.mixed {
		streams = []*stream{links[0], upserts}
	}
	runSegment(hc, links, segDur/2, 0) // warm-up: connections, pools, page cache
	for seg := 0; seg < segments; seg++ {
		logs := runSegment(hc, streams, segDur, 0)
		var rate float64
		for _, l := range logs[:len(links)] {
			note(l, "link")
			rate += l.rate()
			linkLat = append(linkLat, l.latMS...)
		}
		linkRates = append(linkRates, rate)
		if w.mixed {
			noteUpserts(logs[len(links)])
		}
	}
	if missing := e.count(minUpserts) - len(upsertLat); !w.mixed || missing > 0 {
		noteUpserts(runSegment(hc, []*stream{upserts}, budget-linkDur, missing)[0])
	}
	reportLatency(o, "link", linkLat)
	reportLatency(o, "upsert", upsertLat)
	o.set("probes_per_s", "1/s", median(linkRates), len(linkRates))
	o.set("upsert_tuples_per_s", "1/s", median(upsertRates), len(upsertLat))
	fmt.Fprintf(e.log, "%s: %d link and %d upsert requests timed; link segment rates %.0f, spread %.1f%%\n",
		w.name, len(linkLat), len(upsertLat), linkRates, 100*rangeSpread(linkRates))

	// Correctness and quality, untimed, against the state the
	// acknowledged upserts left behind.
	applyAcked := func(batches []int) error {
		reqs := make([]upsertReq, len(batches))
		for i, b := range batches {
			reqs[i] = sched.upserts[b]
		}
		return ref.apply(reqs)
	}
	if err := applyAcked(acked); err != nil {
		return nil, err
	}
	q := qualityPass(hc, linkURL, spread(sched.links, e.count(w.checkRequests)), w.strategy, ref)
	o.count(q.attempted, q.failed, q.firstErr)
	if q.keys > 0 {
		o.set("completeness", "ratio", float64(q.found)/float64(q.keys), q.keys)
		o.set("modelled_cost_per_key", "steps", q.cost/float64(q.keys), q.keys)
	}
	o.count(verifyAcked(hc, linkURL, ref.acked))

	// Checkpoints, then the stored size while the log is empty.
	snapURL := base + "/v1/indexes/" + indexName + "/snapshot"
	var ckpt []float64
	for i := 0; i < checkpoints; i++ {
		t0 := time.Now()
		status, body, _, err := post(hc, snapURL, nil, nil, true)
		d := time.Since(t0)
		if err != nil || status != http.StatusOK {
			o.count(1, 1, fmt.Errorf("checkpoint: status %d: %v %s", status, err, clip(body)))
			continue
		}
		o.count(1, 0, nil)
		ckpt = append(ckpt, d.Seconds())
	}
	o.set("checkpoint_s", "s", median(ckpt), len(ckpt))
	stored, err := f.storedBytes()
	if err != nil {
		return nil, err
	}
	o.set("stored_bytes_per_key_byte", "ratio", float64(stored)/float64(keyBytes(ref.resident)), len(ref.resident))

	// Cold starts: SIGKILL and restart on the bare snapshot, then on a
	// WAL tail. Every restart must serve every acknowledged upsert.
	restart := func(times int) ([]float64, error) {
		var out []float64
		for i := 0; i < times; i++ {
			d, err := f.restartNodes(hc, sched.probe)
			if err != nil {
				return nil, err
			}
			out = append(out, d.Seconds())
			o.count(verifyAcked(hc, linkURL, ref.acked))
		}
		return out, nil
	}
	cold, err := restart(e.count(snapRestarts))
	if err != nil {
		return nil, err
	}
	o.set("cold_start_snapshot_s", "s", median(cold), len(cold))
	tail := runSegment(hc, []*stream{upserts}, 0, e.count(w.tailBatches))[0]
	note(tail, "tail upsert")
	if err := applyAcked(tail.sent); err != nil {
		return nil, err
	}
	if cold, err = restart(e.count(replayRestarts)); err != nil {
		return nil, err
	}
	o.set("cold_start_replay_s", "s", median(cold), len(cold))
	o.set("rss_peak_mb", "MB", f.peakRSSMB(), len(f.all()))

	o.Correct = o.Failed == 0 && len(o.errs) == 0 && len(o.Metrics.missing(measured)) == 0
	failedRun = !o.Correct
	if failedRun {
		fmt.Fprintf(e.log, "%s: daemon logs kept under %s\n", w.name, filepath.Join(e.outDir, w.name+".*.log"))
	}
	return o, nil
}

// reportLatency sets <kind>_p50_ms and <kind>_p95_ms over all timed
// requests of a kind. A percentile with fewer than ten samples beyond
// it is still set, so the result keeps its shape, but says so.
func reportLatency(o *outcome, kind string, lat []float64) {
	s := sortedCopy(lat)
	for _, p := range []struct {
		name string
		p    float64
	}{{"p50", 0.50}, {"p95", 0.95}} {
		v, ok := percentile(s, p.p)
		smp := sample{Value: v, Unit: "ms", N: len(s)}
		if !ok {
			smp.Note = fmt.Sprintf("fewer than %d samples beyond it", minBeyond)
		}
		o.Metrics[kind+"_"+p.name+"_ms"] = smp
	}
}
