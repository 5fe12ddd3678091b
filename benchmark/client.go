package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// newHTTPClient returns the benchmark's one client: at most two
// connections to a host, one per closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// post sends one pre-encoded request. With keep the response body is
// returned; otherwise it is read and discarded and only its length kept.
func post(hc *http.Client, url string, body []byte, header http.Header, keep bool) (status int, resp []byte, n int64, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	r, err := hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer r.Body.Close()
	if keep {
		resp, err = io.ReadAll(r.Body)
		return r.StatusCode, resp, int64(len(resp)), err
	}
	n, err = io.Copy(io.Discard, r.Body)
	return r.StatusCode, nil, n, err
}

// stream is one closed-loop client's request sequence: it sends
// reqs[offset], reqs[offset+stride], … and waits for each reply.
type stream struct {
	url    string
	reqs   [][]byte
	units  int // keys or tuples per request
	offset int
	stride int
	// cyclic streams wrap around (link requests are idempotent); an
	// upsert stream is consumed once, because replaying a batch would
	// turn its inserts into replacements.
	cyclic bool
	// header, when set, is added to every request; id, when set, mints
	// the X-Request-ID of request i.
	header http.Header
	id     func(i int) string
}

// linkClients returns n closed-loop link clients that share the request
// cycle: client c sends requests c, c+n, c+2n, ….
func linkClients(base string, s *schedule, batch, n int) []*stream {
	out := make([]*stream, n)
	for c := range out {
		out[c] = &stream{url: base + "/v1/link", reqs: s.linkBodies, units: batch, offset: c, stride: n, cyclic: true}
	}
	return out
}

// upsertClient returns the one client that sends every upsert batch once.
func upsertClient(base string, s *schedule) *stream {
	return &stream{url: base + "/v1/indexes/" + indexName + "/upsert", reqs: s.upsertBodies, units: upsertBatch, stride: 1}
}

// opLog is what one stream did in one segment.
type opLog struct {
	units     int // keys or tuples per request, from the stream
	latMS     []float64
	sent      []int // request indices, in send order
	failed    int
	reqBytes  int64
	respBytes int64
	elapsed   time.Duration
	firstErr  error
}

func (l *opLog) attempted() int { return len(l.latMS) + l.failed }

// rate is keys or tuples per second over the stream's own busy interval.
func (l *opLog) rate() float64 {
	if l.elapsed <= 0 {
		return 0
	}
	return float64(len(l.latMS)*l.units) / l.elapsed.Seconds()
}

// runSegment drives the streams side by side for dur. A stream keeps
// going past dur until it has completed minOps requests, and stops
// early only when a non-cyclic stream is exhausted. Each stream starts
// at its own offset, so replaying a segment replays the same requests.
func runSegment(hc *http.Client, streams []*stream, dur time.Duration, minOps int) []*opLog {
	logs := make([]*opLog, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for si, s := range streams {
		logs[si] = &opLog{units: s.units}
		wg.Add(1)
		go func(s *stream, l *opLog) {
			defer wg.Done()
			i := s.offset
			for {
				if len(l.latMS) >= minOps && time.Since(start) >= dur {
					break
				}
				if i >= len(s.reqs) {
					if !s.cyclic {
						break
					}
					i = s.offset
				}
				header := s.header
				if s.id != nil {
					header = header.Clone()
					if header == nil {
						header = http.Header{}
					}
					header.Set("X-Request-ID", s.id(i))
				}
				t0 := time.Now()
				status, _, n, err := post(hc, s.url, s.reqs[i], header, false)
				lat := time.Since(t0)
				if err != nil || status/100 != 2 {
					l.failed++
					if l.firstErr == nil {
						l.firstErr = fmt.Errorf("%s request %d: status %d: %v", s.url, i, status, err)
					}
				} else {
					l.latMS = append(l.latMS, float64(lat.Nanoseconds())/1e6)
					l.sent = append(l.sent, i)
					l.reqBytes += int64(len(s.reqs[i]))
					l.respBytes += n
				}
				i += s.stride
			}
			l.elapsed = time.Since(start)
			if !s.cyclic {
				s.offset = i
			}
		}(s, logs[si])
	}
	wg.Wait()
	return logs
}
