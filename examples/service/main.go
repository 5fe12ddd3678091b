// Service: the resident index-once/probe-many mode, both as a library
// (NewIndex / Session.Probe) and over the adaptivelinkd wire protocol.
// The reference table is indexed once; many independent clients then
// probe it, each with its own adaptive session — a misbehaving client
// escalates only itself. For the demo the HTTP server runs in-process
// on a loopback listener; in production you would run cmd/adaptivelinkd
// and point real clients at it.
//
// Run with:
//
//	go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"adaptivelink"
	"adaptivelink/internal/service"
)

func main() {
	// --- Library form: index once, probe many. ---
	ref := []adaptivelink.Tuple{
		{ID: 0, Key: "via monte bianco nord 12", Attrs: []string{"Aosta"}},
		{ID: 1, Key: "lago di como est", Attrs: []string{"Como"}},
		{ID: 2, Key: "valle verde ovest 9", Attrs: []string{"Torino"}},
	}
	ix, err := adaptivelink.NewIndex(adaptivelink.FromTuples(ref), adaptivelink.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := ix.NewSession(adaptivelink.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, key := range []string{
		"lago di como est",         // clean: exact hash lookup, cost 1
		"via monte bianca nord 12", // typo: deficit fires, probe escalates
		"lago di como est",         // clean again: session reverts to exact
	} {
		for _, m := range sess.Probe(key) {
			fmt.Printf("  %-28q -> %q (sim %.3f, exact %v)\n", key, m.Ref.Key, m.Similarity, m.Exact)
		}
	}
	st := sess.Stats()
	fmt.Printf("library session: %d probes, %d escalations, state %s, modelled cost %.1f\n\n",
		st.Probes, st.Escalations, st.State, st.ModelledCost)

	// Batch probing: one ProbeBatch call routes the whole batch, loads
	// each shard snapshot once and (on multi-core hosts) fans shard
	// groups out concurrently — with exactly the statistics a loop of
	// single probes would produce.
	batchSess, err := ix.NewSession(adaptivelink.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	batch := []string{"valle verde ovest 9", "via monte bianca nord 12", "no such street 1"}
	for i, ms := range batchSess.ProbeBatch(batch) {
		fmt.Printf("  batch[%d] %-28q -> %d match(es)\n", i, batch[i], len(ms))
	}
	bst := batchSess.Stats()
	fmt.Printf("batch session: %d probes in one call, %d hits, %d escalations\n\n",
		bst.Probes, bst.Hits, bst.Escalations)

	// --- Wire form: the same flow over adaptivelinkd's HTTP API. ---
	svc := service.New(service.Config{})
	defer svc.Close()
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()

	post := func(path string, payload any) []byte {
		raw, _ := json.Marshal(payload)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode >= 300 {
			log.Fatalf("%s: %d %s", path, resp.StatusCode, buf.String())
		}
		return buf.Bytes()
	}

	post("/v1/indexes", service.CreateIndexRequest{
		Name: "atlas",
		Tuples: []service.TupleDTO{
			{ID: 0, Key: "via monte bianco nord 12", Attrs: []string{"Aosta"}},
			{ID: 1, Key: "lago di como est", Attrs: []string{"Como"}},
		},
	})
	post("/v1/indexes/atlas/upsert", service.UpsertRequest{
		Tuples: []service.TupleDTO{{ID: 2, Key: "valle verde ovest 9", Attrs: []string{"Torino"}}},
	})

	// A keys batch is one session server-side: the whole batch runs
	// through Session.ProbeBatch inside a single execution slot.
	var lr service.LinkResponseDTO
	if err := json.Unmarshal(post("/v1/link", service.LinkRequestDTO{
		Index: "atlas",
		Keys:  []string{"valle verde ovest 9", "via monte bianca nord 12"},
	}), &lr); err != nil {
		log.Fatal(err)
	}
	for _, r := range lr.Results {
		for _, m := range r.Matches {
			fmt.Printf("  /v1/link %-28q -> %q (sim %.3f, exact %v)\n", r.Key, m.RefKey, m.Similarity, m.Exact)
		}
	}
	fmt.Printf("service session: %d probes, %d escalations, state %s\n\n",
		lr.Session.Probes, lr.Session.Escalations, lr.Session.State)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	fmt.Println("a few /metrics series:")
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "adaptivelink_probes_total") ||
			strings.HasPrefix(line, "adaptivelink_escalations_total") ||
			strings.HasPrefix(line, "adaptivelink_modelled_cost_total") {
			fmt.Println("  " + line)
		}
	}
}
