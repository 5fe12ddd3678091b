package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"

	"adaptivelink"
	"adaptivelink/internal/service"
)

// reference is the in-process adaptivelink index every daemon answer is
// compared with: same reference rows, same options, and the same
// acknowledged upserts in the same order. Routed answers are specified
// byte-identical to a single process, so one reference serves all
// topologies.
type reference struct {
	ix *adaptivelink.Index
	// acked maps every upserted key to its last acknowledged payload.
	acked map[string][]string
	// resident maps every resident key to its payload, for the stored
	// bytes ratio.
	resident map[string][]string
}

func indexOptions() adaptivelink.IndexOptions {
	return adaptivelink.IndexOptions{Q: indexQ, Theta: indexTheta, Shards: indexShards, Profile: indexProf}
}

func newReference(s *schedule) (*reference, error) {
	ix, err := adaptivelink.NewIndex(adaptivelink.FromTuples(s.parents), indexOptions())
	if err != nil {
		return nil, err
	}
	r := &reference{ix: ix, acked: map[string][]string{}, resident: make(map[string][]string, len(s.parents))}
	for _, t := range s.parents {
		r.resident[t.Key] = t.Attrs
	}
	return r, nil
}

// apply replays acknowledged upsert batches, in order, as one batch:
// the store is keyed and the newest payload wins, inside a batch as
// across batches, so the state is the same and one copy-on-write pass
// pays for all of them.
func (r *reference) apply(batches []upsertReq) error {
	var all []adaptivelink.Tuple
	for _, u := range batches {
		all = append(all, u.tuples...)
	}
	if _, _, err := r.ix.Upsert(all...); err != nil {
		return err
	}
	for _, t := range all {
		r.acked[t.Key] = t.Attrs
		r.resident[t.Key] = t.Attrs
	}
	return nil
}

// expect computes the exact response body the daemon owes for req: one
// session per request, encoded as the handler encodes it.
func (r *reference) expect(req linkReq, strategy string) ([]byte, error) {
	st, err := service.ParseStrategy(strategy)
	if err != nil {
		return nil, err
	}
	sess, err := r.ix.NewSession(adaptivelink.SessionOptions{Strategy: st})
	if err != nil {
		return nil, err
	}
	results := sess.ProbeBatch(req.keys)
	out := service.LinkResponseDTO{Results: make([]service.KeyResultDTO, len(req.keys)), Session: sess.Stats()}
	for i, key := range req.keys {
		kr := service.KeyResultDTO{Key: key, Matches: []service.MatchDTO{}}
		for _, m := range results[i] {
			kr.Matches = append(kr.Matches, service.MatchDTO{
				RefID: m.Ref.ID, RefKey: m.Ref.Key, RefAttrs: m.Ref.Attrs,
				Similarity: m.Similarity, Exact: m.Exact,
			})
		}
		out.Results[i] = kr
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// quality is the outcome of the untimed correctness and quality pass.
type quality struct {
	attempted, failed int
	keys, found       int     // probe keys, and those answered with their true parent
	cost              float64 // Σ of the sessions' modelled cost
	firstErr          error
}

func (q *quality) fail(err error) {
	q.failed++
	if q.firstErr == nil {
		q.firstErr = err
	}
}

// qualityPass replays the given link requests single-client and
// compares every answer byte for byte with the reference. The reference
// answers are computed alongside on the second core.
func qualityPass(hc *http.Client, url string, links []linkReq, strategy string, ref *reference) quality {
	n := len(links)
	want := make([][]byte, n)
	wantErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			b, err := ref.expect(links[i], strategy)
			if err != nil {
				wantErr <- err
				return
			}
			want[i] = b
		}
		wantErr <- nil
	}()
	got := make([][]byte, n)
	var q quality
	for i := 0; i < n; i++ {
		q.attempted++
		status, body, _, err := post(hc, url, links[i].body, nil, true)
		if err != nil || status != http.StatusOK {
			q.fail(fmt.Errorf("quality request %d: status %d: %v", i, status, err))
			continue
		}
		got[i] = body
	}
	if err := <-wantErr; err != nil {
		q.fail(fmt.Errorf("reference: %w", err))
		return q
	}
	for i := 0; i < n; i++ {
		if got[i] == nil {
			continue
		}
		if !bytes.Equal(got[i], want[i]) {
			q.fail(fmt.Errorf("quality request %d differs from the in-process reference:\n got  %s\n want %s",
				i, clip(got[i]), clip(want[i])))
			continue
		}
		var resp service.LinkResponseDTO
		if err := json.Unmarshal(got[i], &resp); err != nil {
			q.fail(fmt.Errorf("quality request %d: %w", i, err))
			continue
		}
		for k, kr := range resp.Results {
			q.keys++
			if slices.ContainsFunc(kr.Matches, func(m service.MatchDTO) bool { return m.RefKey == links[i].truth[k] }) {
				q.found++
			}
		}
		q.cost += resp.Session.ModelledCost
	}
	return q
}

func clip(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "…"
	}
	return string(b)
}

// verifyAcked exact-probes every acknowledged upsert key, 64 to a
// request, and requires each to come back with its last acknowledged
// payload. It returns requests attempted and failed.
func verifyAcked(hc *http.Client, url string, acked map[string][]string) (attempted, failed int, firstErr error) {
	keys := make([]string, 0, len(acked))
	for k := range acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for lo := 0; lo < len(keys); lo += 64 {
		batch := keys[lo:min(lo+64, len(keys))]
		attempted++
		err := func() error {
			body, err := linkBody(batch, "exact")
			if err != nil {
				return err
			}
			status, raw, _, err := post(hc, url, body, nil, true)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("status %d: %v", status, err)
			}
			var resp service.LinkResponseDTO
			if err := json.Unmarshal(raw, &resp); err != nil {
				return err
			}
			if len(resp.Results) != len(batch) {
				return fmt.Errorf("%d results for %d keys", len(resp.Results), len(batch))
			}
			for i, kr := range resp.Results {
				want := acked[batch[i]]
				if len(kr.Matches) != 1 || !kr.Matches[0].Exact || !slices.Equal(kr.Matches[0].RefAttrs, want) {
					return fmt.Errorf("key %q: want one exact match with payload %v, got %+v", batch[i], want, kr.Matches)
				}
			}
			return nil
		}()
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("verifying acknowledged upserts: %w", err)
			}
		}
	}
	return attempted, failed, firstErr
}
