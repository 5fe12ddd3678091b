package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"adaptivelink"
	"adaptivelink/internal/normalize"
	"adaptivelink/internal/service"
)

// Fixed conditions shared by every workload. Daemon flags are in
// daemon.go; README.md states all of them in one place.
const (
	indexName   = "bench"
	indexShards = 4
	indexQ      = 3
	indexTheta  = 0.75
	indexProf   = "standard"
	variantRate = 0.10
	upsertBatch = 16 // tuples per upsert: half new keys, half replacements

	segments       = 5   // identical timed link segments per run
	minUpserts     = 220 // upsert batches a run times at least: p95 needs 10 samples beyond it
	setupRounds    = 5   // set-up is repeated and the median reported
	checkpoints    = 3
	snapRestarts   = 5 // SIGKILL + restart on an empty WAL
	replayRestarts = 3 // SIGKILL + restart on the WAL tail
)

// workload is one traffic mix against one daemon topology. Sizes are
// frozen: changing one starts a new baseline.
type workload struct {
	name, why string
	routed    bool
	refRows   int
	pattern   adaptivelink.Pattern
	strategy  string
	linkBatch int
	// mixed runs the link client and the upsert client side by side for
	// the whole of --seconds; otherwise two link clients run for
	// linkShare of it and one upsert client for the rest.
	mixed     bool
	linkShare float64
	// checkRequests is the size of the untimed quality pass.
	checkRequests int
	// tailBatches is the WAL tail a replay restart recovers.
	tailBatches int
}

var workloads = []workload{
	{
		name:    "single_exact",
		why:     "exact kernel ~0.2us/key, so JSON codec, worker queue and transport own the request; a codec or queue change shows here, a kernel change must not",
		refRows: 20000, pattern: adaptivelink.PatternUniform, strategy: "exact", linkBatch: 64,
		linkShare: 0.65, checkRequests: 2000, tailBatches: 32,
	},
	{
		name:    "single_adaptive",
		why:     "few-high bursts under the adaptive strategy: q-gram probe, verification and the control loop own the request; the paper's time-vs-completeness workload",
		refRows: 20000, pattern: adaptivelink.PatternFewHigh, strategy: "adaptive", linkBatch: 64,
		linkShare: 0.65, checkRequests: 250, tailBatches: 32,
	},
	{
		name:   "routed_mixed",
		why:    "router over 2 durable node groups, one client linking and one upserting: fan-out round-trips, merge and quorum writes own the time; writes beside lock-free reads",
		routed: true, refRows: 20000, pattern: adaptivelink.PatternFewHigh, strategy: "adaptive", linkBatch: 16,
		mixed: true, checkRequests: 400, tailBatches: 32,
	},
	{
		name:    "durable_restart",
		why:     "larger durable index, mostly upserts, then checkpoint and SIGKILL restarts: WAL append, snapshot codec, replay and copy-on-write cloning do the work, linking almost none",
		refRows: 30000, pattern: adaptivelink.PatternUniform, strategy: "exact", linkBatch: 64,
		linkShare: 0.25, checkRequests: 1000, tailBatches: 32,
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// linkReq is one pre-encoded /v1/link request with its ground truth.
type linkReq struct {
	keys []string
	// truth[i] is the indexed form of the key of keys[i]'s true parent.
	truth []string
	body  []byte
}

// upsertReq is one pre-encoded upsert batch.
type upsertReq struct {
	tuples []adaptivelink.Tuple
	body   []byte
}

// schedule is everything a run sends, generated from the seed alone.
type schedule struct {
	parents    []adaptivelink.Tuple
	createBody []byte
	links      []linkReq
	upserts    []upsertReq
	// linkBodies and upsertBodies are the bodies in the order the clients
	// send them: links shuffled, upserts as generated.
	linkBodies, upsertBodies [][]byte
	// probe is a one-key exact request a restarted daemon must answer.
	probe []byte
}

// scale shrinks every size, for the smoke test only; a real run uses 1.
func buildSchedule(w workload, seed int64, maxUpserts int, scale float64) (*schedule, error) {
	rows := int(float64(w.refRows) * scale)
	data, err := adaptivelink.GenerateTestData(seed, rows, 2*rows, w.pattern, variantRate, false)
	if err != nil {
		return nil, err
	}
	norm, err := normalize.ProfileNamed(indexProf)
	if err != nil {
		return nil, err
	}
	s := &schedule{parents: data.Parent}

	create := service.CreateIndexRequest{
		Name: indexName, Q: indexQ, Theta: indexTheta, Shards: indexShards, Profile: indexProf,
		Tuples: make([]service.TupleDTO, len(data.Parent)),
	}
	resident := make(map[string]bool, len(data.Parent))
	for i, t := range data.Parent {
		create.Tuples[i] = service.TupleDTO{ID: t.ID, Key: t.Key, Attrs: t.Attrs}
		resident[norm.Apply(t.Key)] = true
	}
	if s.createBody, err = json.Marshal(create); err != nil {
		return nil, err
	}
	if s.probe, err = linkBody([]string{data.Parent[0].Key}, "exact"); err != nil {
		return nil, err
	}

	for lo := 0; lo+w.linkBatch <= len(data.Child); lo += w.linkBatch {
		r := linkReq{keys: make([]string, w.linkBatch), truth: make([]string, w.linkBatch)}
		for i := range r.keys {
			r.keys[i] = data.Child[lo+i].Key
			r.truth[i] = norm.Apply(data.Parent[data.ChildParent[lo+i]].Key)
		}
		if r.body, err = linkBody(r.keys, w.strategy); err != nil {
			return nil, err
		}
		s.links = append(s.links, r)
	}
	// Clients send the cycle in a shuffled order: a timed segment covers
	// only a prefix of it, and a bursty stream's first requests are not
	// its average ones.
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(s.links)) {
		s.linkBodies = append(s.linkBodies, s.links[i].body)
	}

	// New keys come from a second generated table; one that collides
	// with a resident key would be a replacement, so it is skipped.
	half := upsertBatch / 2
	fresh, err := adaptivelink.GenerateTestData(seed^0x5eed, maxUpserts*half+64, 1, adaptivelink.PatternUniform, 0, false)
	if err != nil {
		return nil, err
	}
	known := append([]adaptivelink.Tuple(nil), data.Parent...)
	next, id := 0, 1_000_000
	for b := 0; b < maxUpserts; b++ {
		version := []string{fmt.Sprintf("v%d", b)}
		u := upsertReq{tuples: make([]adaptivelink.Tuple, 0, upsertBatch)}
		inBatch := make(map[string]bool, upsertBatch)
		for len(u.tuples) < half && next < len(fresh.Parent) {
			t := fresh.Parent[next]
			next++
			if k := norm.Apply(t.Key); !resident[k] {
				resident[k] = true
				inBatch[t.Key] = true
				u.tuples = append(u.tuples, adaptivelink.Tuple{ID: id, Key: t.Key, Attrs: version})
				id++
			}
		}
		if len(u.tuples) < half {
			return nil, fmt.Errorf("ran out of new keys at upsert batch %d", b)
		}
		for len(u.tuples) < upsertBatch {
			t := known[rng.Intn(len(known))]
			if inBatch[t.Key] {
				continue
			}
			inBatch[t.Key] = true
			u.tuples = append(u.tuples, adaptivelink.Tuple{ID: id, Key: t.Key, Attrs: version})
			id++
		}
		known = append(known, u.tuples[:half]...)
		dto := service.UpsertRequest{Tuples: make([]service.TupleDTO, len(u.tuples))}
		for i, t := range u.tuples {
			dto.Tuples[i] = service.TupleDTO{ID: t.ID, Key: t.Key, Attrs: t.Attrs}
		}
		if u.body, err = json.Marshal(dto); err != nil {
			return nil, err
		}
		s.upserts = append(s.upserts, u)
		s.upsertBodies = append(s.upsertBodies, u.body)
	}
	return s, nil
}

func linkBody(keys []string, strategy string) ([]byte, error) {
	return json.Marshal(service.LinkRequestDTO{Index: indexName, Keys: keys, Strategy: strategy})
}

// keyBytes is the user data a set of tuples carries: key plus payload.
func keyBytes(tuples map[string][]string) int64 {
	var n int64
	for k, attrs := range tuples {
		n += int64(len(k))
		for _, a := range attrs {
			n += int64(len(a))
		}
	}
	return n
}
