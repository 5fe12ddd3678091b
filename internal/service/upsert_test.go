package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"adaptivelink"
)

// keptRows are upsert rows whose strings, in the body json.Marshal
// writes, alias it (ASCII, Cyrillic, astral) or are decoded apart from
// it (the escaped quotes and angle brackets).
var keptRows = []adaptivelink.Tuple{
	{ID: 10, Key: "via monte bianco nord 12", Attrs: []string{"alpine", "45.1"}},
	{ID: 11, Key: "lago di como est"},
	{ID: 12, Key: "улица ленина 5", Attrs: []string{"москва"}},
	{ID: 13, Key: "проспект мира 101"},
	{ID: 14, Key: "𝔙𝔦𝔞 𝔯𝔬𝔪𝔞 😀 7", Attrs: []string{"🏔"}},
	{ID: 15, Key: "🏔 passo dello stelvio"},
	{ID: 16, Key: `corso "vittorio" <emanuele> 3`, Attrs: []string{`a&b`}},
}

// seedRows are the rows an index holds before the upsert in the cases
// that build its q-gram index first; the first replaces one keptRows
// key.
var seedRows = []adaptivelink.Tuple{
	{ID: 1, Key: "lago di como est", Attrs: []string{"old"}},
	{ID: 2, Key: "valle verde ovest 9"},
	{ID: 3, Key: "улица пушкина 10"},
}

// An upsert read by the stream reader aliases its request body, which
// nothing may keep past the upsert: after the body's bytes are
// overwritten, the index answers every key's exact and approximate
// probes and reports the digest of an index given the same rows as
// strings of their own, and a durable one reopens to that digest. The
// upsert lands in an empty index (a bulk load) or in shards whose
// q-gram index a probe built first (keys decomposed, grams interned).
func TestUpsertKeepsNothingOfBody(t *testing.T) {
	body := marshal(t, UpsertRequest{Tuples: wireTuples(keptRows)})
	if !bytes.Contains(body, []byte(`\"vittorio\"`)) {
		t.Fatalf("the body holds no escaped string: %s", body)
	}
	for _, durable := range []bool{false, true} {
		for _, built := range []bool{false, true} {
			t.Run(fmt.Sprintf("durable=%v/built=%v", durable, built), func(t *testing.T) {
				cfg := Config{Workers: 2}
				if durable {
					cfg.DataDir = t.TempDir()
				}
				s := New(cfg)
				defer func() { s.Close() }()
				var seed []adaptivelink.Tuple
				if built {
					seed = seedRows
				}
				for _, name := range []string{"got", "ref"} {
					if _, err := s.CreateIndex(name, adaptivelink.IndexOptions{Shards: 2}, seed); err != nil {
						t.Fatal(err)
					}
					if built {
						probe(t, s, name, "approximate", "lago di como")
					}
				}
				buf := bytes.Clone(body)
				if _, _, handled, err := s.upsertStreamed("got", buf); !handled || err != nil {
					t.Fatalf("streamed upsert: handled %v, err %v", handled, err)
				}
				for i := range buf {
					buf[i] = '#'
				}
				owned := make([]adaptivelink.Tuple, len(keptRows))
				for i, r := range keptRows {
					owned[i] = adaptivelink.Tuple{ID: r.ID, Key: strings.Clone(r.Key)}
					for _, a := range r.Attrs {
						owned[i].Attrs = append(owned[i].Attrs, strings.Clone(a))
					}
				}
				if _, _, err := s.Upsert("ref", owned); err != nil {
					t.Fatal(err)
				}
				for _, r := range append(keptRows, seedRows...) {
					for _, key := range []string{r.Key, r.Key[:len(r.Key)-1]} {
						for _, strat := range []string{"exact", "approximate"} {
							got, ref := probe(t, s, "got", strat, key), probe(t, s, "ref", strat, key)
							if !reflect.DeepEqual(got, ref) {
								t.Errorf("%s probe %q: %+v, from owned strings %+v", strat, key, got, ref)
							}
						}
					}
				}
				want := digest(t, s, "ref")
				if got := digest(t, s, "got"); got.Combined != want.Combined {
					t.Fatalf("digest %+v, from owned strings %+v", got, want)
				}
				if !durable {
					return
				}
				s.Close()
				s = New(cfg)
				if _, err := s.LoadStored(); err != nil {
					t.Fatal(err)
				}
				if got := digest(t, s, "got"); got.Combined != want.Combined {
					t.Fatalf("reopened digest %+v, want %+v", got, want)
				}
			})
		}
	}
}

func wireTuples(rows []adaptivelink.Tuple) []TupleDTO {
	out := make([]TupleDTO, len(rows))
	for i, r := range rows {
		out[i] = TupleDTO(r)
	}
	return out
}

// probe links key against the named index with strat.
func probe(t *testing.T, s *Service, name, strat, key string) [][]adaptivelink.ProbeMatch {
	t.Helper()
	resp, err := s.Link(context.Background(), LinkRequest{Index: name, Keys: []string{key}, Strategy: strat})
	if err != nil {
		t.Fatalf("link %q on %s: %v", key, name, err)
	}
	return resp.Results
}

func digest(t *testing.T, s *Service, name string) adaptivelink.IndexDigest {
	t.Helper()
	d, err := s.DigestIndex(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A write that finds its index closed — it lost the race with a DELETE,
// which closes the index before its rename commits, or a DELETE failed
// after closing it — answers 404 not_found, as it would once the DELETE
// commits, never 500; on an in-memory service as on a durable one.
func TestClosedIndexWritesNotFound(t *testing.T) {
	for _, dataDir := range []string{t.TempDir(), ""} {
		s := New(Config{Workers: 2, DataDir: dataDir})
		defer s.Close()
		if _, err := s.CreateIndex("atlas", adaptivelink.IndexOptions{}, refTuples(testKeys...)); err != nil {
			t.Fatal(err)
		}
		var image bytes.Buffer
		if err := s.ExportIndex("atlas", &image); err != nil {
			t.Fatal(err)
		}
		mi, err := s.lookup("atlas")
		if err != nil {
			t.Fatal(err)
		}
		if err := mi.ix.Close(); err != nil {
			t.Fatal(err)
		}
		h := NewHandler(s)
		for _, c := range []struct {
			path string
			body []byte
		}{
			{"/v1/indexes/atlas/upsert", marshal(t, UpsertRequest{Tuples: []TupleDTO{{ID: 9, Key: "lago di garda"}}})},
			{"/v1/indexes/atlas/upsert", []byte(`{"TUPLES":[{"key":"lago di garda"}]}`)},
			{"/v1/indexes/atlas/snapshot", nil},
			{"/v1/indexes/atlas/resync", image.Bytes()},
		} {
			if dataDir == "" && strings.HasSuffix(c.path, "/snapshot") {
				continue // an in-memory service refuses a checkpoint as invalid before it finds the index
			}
			code, resp := serveBody(h, "POST", c.path, c.body)
			var e ErrorDTO
			if err := json.Unmarshal(resp, &e); err != nil || code != http.StatusNotFound || e.Error.Code != CodeNotFound ||
				!strings.Contains(e.Error.Message, `"atlas" is being deleted`) {
				t.Errorf("data dir %q: POST %s %.40q to a closed index: %d %s, want 404 not_found", dataDir, c.path, c.body, code, resp)
			}
		}
	}
}
