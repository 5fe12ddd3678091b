package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"adaptivelink/internal/shardmap"
)

// Placement contract: a reference tuple lives on exactly one node group
// — the owner of its key-hash shard — so the cluster stores one copy per
// replica (R = 1 across groups), and copies left on other groups by a
// release that also placed keys on their signature groups never answer.

func placementKey(i int) string {
	return fmt.Sprintf("%s %s %d",
		[]string{"via monte bianco", "corso lago maggiore", "piazza valle verde", "viale porta nuova"}[i%4],
		[]string{"nord", "sud", "est", "ovest"}[(i/2)%4], 1+i)
}

func placementTuples(ids []int, attr string) string {
	ts := make([]string, len(ids))
	for j, i := range ids {
		ts[j] = fmt.Sprintf(`{"id":%d,"key":%q,"attrs":[%q]}`, i, placementKey(i), attr)
	}
	return strings.Join(ts, ",")
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// indexSize reads one stack's resident key count for atlas.
func indexSize(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/indexes/atlas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info IndexInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/indexes/atlas: %d %v", base, resp.StatusCode, err)
	}
	return info.Size
}

// TestClusterHomeGroupOnly: after a create and interleaved inserts and
// updates, every key is resident on all replicas of its home group and
// on no other node, and one replica per group sums to the router's key
// count.
func TestClusterHomeGroupOnly(t *testing.T) {
	const shards = 6
	for _, sizes := range [][]int{{1}, {2, 1}, {1, 1, 1}} {
		t.Run(fmt.Sprintf("groups=%d", len(sizes)), func(t *testing.T) {
			f := newClusterFixture(t, shards, sizes, nil)
			post := func(path, body string, want int) {
				t.Helper()
				if code, resp := f.router.do(t, "POST", path, body); code != want {
					t.Fatalf("POST %s: %d %s", path, code, resp)
				}
			}
			post("/v1/indexes", fmt.Sprintf(`{"name":"atlas","tuples":[%s]}`, placementTuples(seq(0, 24), "v0")), http.StatusCreated)
			next := 24
			for round := 0; round < 5; round++ {
				ids := append(seq(next, next+4), round, round+7, next-1) // inserts, then updates of residents
				next += 4
				post("/v1/indexes/atlas/upsert", fmt.Sprintf(`{"tuples":[%s]}`, placementTuples(ids, fmt.Sprintf("round%d", round))), http.StatusOK)
			}

			routerLen, sum := indexSize(t, f.router.srv.URL), 0
			for g := range f.nodes {
				n := indexSize(t, f.nodes[g][0].URL)
				for r := range f.nodes[g] {
					if got := indexSize(t, f.nodes[g][r].URL); got != n {
						t.Fatalf("group %d: replica %d holds %d keys, replica 0 holds %d", g, r, got, n)
					}
				}
				sum += n
			}
			if routerLen != next || sum != routerLen {
				t.Fatalf("one replica per group holds %d keys, router %d, written %d: want all equal (R = 1)", sum, routerLen, next)
			}

			keys := make([]string, next)
			for i := range keys {
				keys[i] = fmt.Sprintf("%q", placementKey(i))
			}
			for g := range f.nodes {
				for r, node := range f.nodes[g] {
					resp, err := http.Post(node.URL+"/v1/link", "application/json",
						strings.NewReader(fmt.Sprintf(`{"index":"atlas","keys":[%s],"strategy":"exact"}`, strings.Join(keys, ","))))
					if err != nil {
						t.Fatal(err)
					}
					var lr LinkResponseDTO
					err = json.NewDecoder(resp.Body).Decode(&lr)
					resp.Body.Close()
					if err != nil || len(lr.Results) != next {
						t.Fatalf("node %d.%d: %d results, %v", g, r, len(lr.Results), err)
					}
					for i, kr := range lr.Results {
						home := shardmap.NodeOf(shardmap.ShardOf(placementKey(i), shards), shards, len(sizes))
						if resident := len(kr.Matches) > 0; resident != (home == g) {
							t.Fatalf("key %q (home group %d) resident on node %d.%d: %v", placementKey(i), home, g, r, resident)
						}
					}
				}
			}
		})
	}
}

// TestClusterLegacyPlacementFiltered rebuilds what nodes populated by
// the signature-replicating placement hold — keys also stored off their
// home group — then updates keys through the
// router, which now maintains the home copy only. The stale non-home
// copies must not surface: approximate answers stay byte-identical to
// the single-process reference (no duplicate match, no old payload).
func TestClusterLegacyPlacementFiltered(t *testing.T) {
	const shards, n = 4, 32
	f := newClusterFixture(t, shards, []int{1, 1}, nil)
	ref := startStack(t, "reference", Config{})
	both := func(path, body string, compare bool) {
		t.Helper()
		wantCode, want := ref.do(t, "POST", path, body)
		code, got := f.router.do(t, "POST", path, body)
		if code != wantCode || (compare && got != want) {
			t.Fatalf("POST %s diverges from the single-process reference\ncluster:   %d %s\nreference: %d %s", path, code, got, wantCode, want)
		}
	}
	both("/v1/indexes", fmt.Sprintf(`{"name":"atlas","tuples":[%s]}`, placementTuples(seq(0, n), "v0")), false)

	// Under the signature placement most keys had a copy off their home
	// group; with two groups that copy sits on the other one. Seed it for
	// two keys in three, so replicated and single-copy keys mix.
	var replicated []int
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			continue
		}
		g := 1 - shardmap.NodeOf(shardmap.ShardOf(placementKey(i), shards), shards, 2)
		resp, err := http.Post(f.nodes[g][0].URL+"/v1/indexes/atlas/upsert", "application/json",
			strings.NewReader(fmt.Sprintf(`{"tuples":[%s]}`, placementTuples([]int{i}, "v0"))))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding the legacy copy of key %d on group %d: %v", i, g, err)
		}
		resp.Body.Close()
		replicated = append(replicated, i)
	}
	if got := indexSize(t, f.nodes[0][0].URL) + indexSize(t, f.nodes[1][0].URL); got != n+len(replicated) {
		t.Fatalf("nodes hold %d copies, want %d home + %d legacy", got, n, len(replicated))
	}

	both("/v1/indexes/atlas/upsert", fmt.Sprintf(`{"tuples":[%s]}`, placementTuples(replicated, "v1")), true)

	probes := make([]string, 0, 2*len(replicated))
	for _, i := range replicated {
		k := []byte(placementKey(i))
		probes = append(probes, fmt.Sprintf("%q", k))
		k[4], k[5] = k[5], k[4]
		probes = append(probes, fmt.Sprintf("%q", k))
	}
	both("/v1/link", fmt.Sprintf(`{"index":"atlas","keys":[%s],"strategy":"approximate"}`, strings.Join(probes, ",")), true)
	both("/v1/link", fmt.Sprintf(`{"index":"atlas","keys":[%s],"futility_k":2}`, strings.Join(probes, ",")), true)
}
