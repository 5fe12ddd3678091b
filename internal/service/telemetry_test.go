package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"adaptivelink"
	"adaptivelink/internal/cluster"
)

// metricsInventory reduces a /metrics exposition to what a scraper keys
// on — every HELP and TYPE line and every series' name and label set, in
// exposition order — dropping the values. subst replaces run-specific
// label text (httptest addresses, build metadata) with stable names.
func metricsInventory(text string, subst map[string]string) string {
	for from, to := range subst {
		text = strings.ReplaceAll(text, from, to)
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// scrapeInventory GETs base's /metrics and returns its inventory.
func scrapeInventory(t *testing.T, base string, subst map[string]string) string {
	t.Helper()
	code, body := doJSON(t, "GET", base+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", code, body)
	}
	return metricsInventory(string(body), subst)
}

// buildInfoSubst names the build-metadata label set of this test binary.
func buildInfoSubst() map[string]string {
	v := buildVersion()
	return map[string]string{
		fmt.Sprintf("go_version=%q,version=%q,revision=%q", v.GoVersion, v.Version, v.Revision): "BUILD",
	}
}

// checkInventory compares got with the golden file, printing got whole
// on a mismatch so a deliberate change can be reviewed line by line.
func checkInventory(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics inventory differs from %s; got:\n%s", golden, got)
	}
}

// lifecycle drives one index through create, upsert, link and
// checkpoint over HTTP.
func lifecycle(t *testing.T, base, name string) {
	t.Helper()
	steps := []struct {
		method, path string
		body         any
		want         int
	}{
		{"POST", "/v1/indexes", CreateIndexRequest{Name: name, Tuples: []TupleDTO{
			{ID: 0, Key: "via monte bianco nord 12", Attrs: []string{"alpine"}},
			{ID: 1, Key: "lago di como est"},
		}}, http.StatusCreated},
		{"POST", "/v1/indexes/" + name + "/upsert", UpsertRequest{Tuples: []TupleDTO{
			{ID: 2, Key: "valle verde ovest 9"},
		}}, http.StatusOK},
		{"POST", "/v1/link", LinkRequestDTO{Index: name, Keys: []string{"lago di como est", "via monte bianca nord 12"}}, http.StatusOK},
		{"POST", "/v1/indexes/" + name + "/snapshot", nil, http.StatusOK},
	}
	for _, st := range steps {
		if code, body := doJSON(t, st.method, base+st.path, st.body); code != st.want {
			t.Fatalf("%s %s: %d %s, want %d", st.method, st.path, code, body, st.want)
		}
	}
}

// TestMetricsInventoryNode pins the families, HELP and TYPE lines, label
// sets and series order a node exports while it holds one durable index
// and after that index is deleted. Dashboards and the repository
// benchmark parse these names.
func TestMetricsInventoryNode(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir())
	lifecycle(t, ts.URL, "atlas")
	got := scrapeInventory(t, ts.URL, buildInfoSubst())
	if code, body := doJSON(t, "DELETE", ts.URL+"/v1/indexes/atlas", nil); code != http.StatusNoContent {
		t.Fatalf("DELETE: %d %s", code, body)
	}
	got += "# -- after DELETE /v1/indexes/atlas --\n" + scrapeInventory(t, ts.URL, buildInfoSubst())
	checkInventory(t, "testdata/metrics_inventory_node.txt", got)
}

// TestMetricsInventoryFreshNode: /metrics is rendered from the state at
// scrape, so a node that never held an index exports every family it
// declares, HELP and TYPE lines included, exactly as one whose only
// index was deleted: the after-DELETE half of the node inventory.
func TestMetricsInventoryFreshNode(t *testing.T) {
	_, ts := newDurableServer(t, t.TempDir())
	want, err := os.ReadFile("testdata/metrics_inventory_node.txt")
	if err != nil {
		t.Fatal(err)
	}
	const sep = "# -- after DELETE /v1/indexes/atlas --\n"
	_, afterDelete, ok := strings.Cut(string(want), sep)
	if !ok {
		t.Fatalf("testdata/metrics_inventory_node.txt lacks %q", sep)
	}
	if got := scrapeInventory(t, ts.URL, buildInfoSubst()); got != afterDelete {
		t.Fatalf("a fresh node's inventory differs from the after-DELETE one; got:\n%s", got)
	}
}

// TestMetricsInventoryRouter pins a router's inventory: its own series,
// the cluster client's per-node and self-healing counters, and the
// per-index series of one routed index.
func TestMetricsInventoryRouter(t *testing.T) {
	var groups [][]string
	var addrs []string
	for g := 0; g < 2; g++ {
		node := startStack(t, fmt.Sprintf("node%d", g), Config{DataDir: t.TempDir()})
		groups = append(groups, []string{node.srv.URL})
		addrs = append(addrs, node.srv.URL)
	}
	// Series are ordered by label text, so the placeholders follow the
	// addresses' order rather than the groups'. Quoting keeps one port
	// from matching as the prefix of another.
	sort.Strings(addrs)
	subst := buildInfoSubst()
	for i, addr := range addrs {
		subst[fmt.Sprintf("%q", addr)] = fmt.Sprintf(`"NODE%d"`, i)
	}
	cl, err := cluster.New(cluster.Config{Map: cluster.Map{Shards: 2, Groups: groups}})
	if err != nil {
		t.Fatal(err)
	}
	router := startStack(t, "router", Config{Cluster: cl})
	lifecycle(t, router.srv.URL, "atlas")
	checkInventory(t, "testdata/metrics_inventory_router.txt", scrapeInventory(t, router.srv.URL, subst))
}

// TestResyncAdoptedShardsReported: an in-memory index that a resync
// moved to another shard layout reports the adopted count everywhere —
// the facade's options, the index info and the shards gauge.
func TestResyncAdoptedShardsReported(t *testing.T) {
	tuples := []TupleDTO{{ID: 0, Key: "via monte bianco nord 12"}, {ID: 1, Key: "lago di como est"}}
	_, ref := newTestServer(t)
	if code, body := doJSON(t, "POST", ref.URL+"/v1/indexes", CreateIndexRequest{Name: "atlas", Shards: 3, Tuples: tuples}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	resp, err := http.Get(ref.URL + "/v1/indexes/atlas/export")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %d %v", resp.StatusCode, err)
	}

	s, node := newTestServer(t)
	if code, body := doJSON(t, "POST", node.URL+"/v1/indexes", CreateIndexRequest{Name: "atlas", Shards: 2, Tuples: tuples}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	if code, body := postResync(t, node.URL, "atlas", blob); code != http.StatusOK {
		t.Fatalf("resync: %d %s", code, body)
	}
	mi, err := s.lookup("atlas")
	if err != nil {
		t.Fatal(err)
	}
	if got := mi.ix.Options().Shards; got != 3 {
		t.Errorf("Options().Shards = %d after adopting 3 shards", got)
	}
	code, body := doJSON(t, "GET", node.URL+"/v1/indexes/atlas", nil)
	var info IndexInfo
	if code != http.StatusOK || json.Unmarshal(body, &info) != nil || info.Shards != 3 {
		t.Errorf("GET /v1/indexes/atlas = %d %s, want shards 3", code, body)
	}
	_, metrics := doJSON(t, "GET", node.URL+"/metrics", nil)
	if want := `adaptivelink_index_shards{index="atlas"} 3`; !strings.Contains(string(metrics), want+"\n") {
		t.Errorf("metrics lack %q:\n%s", want, grepLines(string(metrics), "index_shards"))
	}
}

// TestCreateDeleteChurnScrape scrapes /metrics from two goroutines while
// indexes are created, upserted and deleted concurrently (run it under
// -race): no scrape that starts after a delete returned may show the
// deleted index's series, and once the churn ends no index series is
// left.
func TestCreateDeleteChurnScrape(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	const workers, rounds, scrapers = 3, 60, 2
	var (
		mu      sync.Mutex
		deleted []string
		churn   sync.WaitGroup
		scrape  sync.WaitGroup
	)
	text := func() string {
		var b strings.Builder
		if err := s.WriteMetrics(&b); err != nil {
			t.Error(err)
		}
		return b.String()
	}
	done := make(chan struct{})
	for i := 0; i < scrapers; i++ {
		scrape.Add(1)
		go func() {
			defer scrape.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				gone := append([]string(nil), deleted...)
				mu.Unlock()
				out := text()
				for _, name := range gone {
					if strings.Contains(out, fmt.Sprintf("index=%q", name)) {
						t.Errorf("a scrape shows deleted index %s:\n%s", name, grepLines(out, name))
						return
					}
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("churn-%d-%d", w, i)
				_, err := s.CreateIndex(name, adaptivelink.IndexOptions{Shards: 2}, refTuples("lago di como est"))
				if err == nil {
					_, _, err = s.Upsert(name, refTuples("valle verde ovest 9"))
				}
				if err == nil {
					err = s.DeleteIndex(name)
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				deleted = append(deleted, name)
				mu.Unlock()
			}
		}(w)
	}
	churn.Wait()
	close(done)
	scrape.Wait()
	if out := text(); strings.Contains(out, "{index=") || !strings.Contains(out, "\nadaptivelink_indexes 0\n") {
		t.Fatalf("after the churn:\n%s", grepLines(out, "index"))
	}
}

// scrapeSeries GETs base's /metrics and returns each series' value by
// its name and label set, as in name{labels}.
func scrapeSeries(t *testing.T, base string) map[string]float64 {
	t.Helper()
	code, body := doJSON(t, "GET", base+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", code, body)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestStatsMatchScrape: after a create, an upsert, an exact and an
// adaptive link, every per-index counter /v1/stats reports equals its
// scraped series, on a node and on a router.
func TestStatsMatchScrape(t *testing.T) {
	_, node := newTestServer(t)
	var groups [][]string
	for g := 0; g < 2; g++ {
		groups = append(groups, []string{startStack(t, fmt.Sprintf("node%d", g), Config{}).srv.URL})
	}
	cl, err := cluster.New(cluster.Config{Map: cluster.Map{Shards: 2, Groups: groups}})
	if err != nil {
		t.Fatal(err)
	}
	router := startStack(t, "router", Config{Cluster: cl})
	for _, base := range []string{node.URL, router.srv.URL} {
		steps := []struct {
			path string
			body any
			want int
		}{
			{"/v1/indexes", CreateIndexRequest{Name: "atlas", Tuples: []TupleDTO{
				{ID: 0, Key: "via monte bianco nord 12"}, {ID: 1, Key: "lago di como est"},
			}}, http.StatusCreated},
			{"/v1/indexes/atlas/upsert", UpsertRequest{Tuples: []TupleDTO{
				{ID: 1, Key: "lago di como est", Attrs: []string{"lake"}}, {ID: 2, Key: "valle verde ovest 9"},
			}}, http.StatusOK},
			{"/v1/link", LinkRequestDTO{Index: "atlas", Strategy: "exact", Keys: []string{"lago di como est", "valle verde ovest 9"}}, http.StatusOK},
			{"/v1/link", LinkRequestDTO{Index: "atlas", Keys: []string{"via monte bianca nord 12", "lago di como ets", "valle verde ovest 9"}}, http.StatusOK},
		}
		for _, st := range steps {
			if code, body := doJSON(t, "POST", base+st.path, st.body); code != st.want {
				t.Fatalf("POST %s%s: %d %s, want %d", base, st.path, code, body, st.want)
			}
		}
		code, body := doJSON(t, "GET", base+"/v1/stats", nil)
		var snap Snapshot
		if code != http.StatusOK || json.Unmarshal(body, &snap) != nil || len(snap.Indexes) != 1 {
			t.Fatalf("GET /v1/stats: %d %s", code, body)
		}
		c := snap.Indexes[0].IndexCounts
		if c.Sessions != 2 || c.Inserted != 3 || c.Updated != 1 || c.Escalations == 0 || c.ApproxMatches == 0 || c.ModelledCost == 0 {
			t.Errorf("%s: counts %+v, want 2 sessions, 3 inserted, 1 updated, an escalation, an approximate match and a modelled cost", base, c)
		}
		series := scrapeSeries(t, base)
		for name, want := range map[string]float64{
			`adaptivelink_sessions_total{index="atlas"}`:                          float64(c.Sessions),
			`adaptivelink_probes_total{index="atlas"}`:                            float64(c.Probes),
			`adaptivelink_probe_hits_total{index="atlas"}`:                        float64(c.Hits),
			`adaptivelink_matches_total{index="atlas",kind="exact"}`:              float64(c.ExactMatches),
			`adaptivelink_matches_total{index="atlas",kind="approximate"}`:        float64(c.ApproxMatches),
			`adaptivelink_escalations_total{index="atlas"}`:                       float64(c.Escalations),
			`adaptivelink_session_switches_total{index="atlas"}`:                  float64(c.Switches),
			`adaptivelink_upserted_tuples_total{index="atlas",effect="inserted"}`: float64(c.Inserted),
			`adaptivelink_upserted_tuples_total{index="atlas",effect="updated"}`:  float64(c.Updated),
			`adaptivelink_modelled_cost_total{index="atlas"}`:                     c.ModelledCost,
		} {
			if got, ok := series[name]; !ok || got != want {
				t.Errorf("%s: scraped %s = %v (present %v), /v1/stats says %v", base, name, got, ok, want)
			}
		}
	}
}
