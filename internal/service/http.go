package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"adaptivelink"
	"adaptivelink/internal/cluster"
	"adaptivelink/internal/obs"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/stream"
	"adaptivelink/internal/wire"
)

// The v1 wire contract lives in internal/wire (the cluster router speaks
// it to the nodes with the same structs); the names below are its
// service-side spelling, kept for every caller that compiles against
// them.
type (
	TupleDTO           = wire.TupleDTO
	CreateIndexRequest = wire.CreateIndexRequest
	UpsertRequest      = wire.UpsertRequest
	UpsertResponse     = wire.UpsertResponse
	LinkRequestDTO     = wire.LinkRequestDTO
	MatchDTO           = wire.MatchDTO
	KeyResultDTO       = wire.KeyResultDTO
	LinkResponseDTO    = wire.LinkResponseDTO
	ErrorDTO           = wire.ErrorDTO
	ErrorBody          = wire.ErrorBody
)

// Error codes of the v1 envelope.
const (
	CodeInvalid         = wire.CodeInvalid
	CodeNotFound        = wire.CodeNotFound
	CodeExists          = wire.CodeExists
	CodeDraining        = wire.CodeDraining
	CodeDeadline        = wire.CodeDeadline
	CodeInternal        = wire.CodeInternal
	CodeNodeUnavailable = wire.CodeNodeUnavailable
)

// SlowlogDTO is the GET /v1/debug/slowlog payload.
type SlowlogDTO struct {
	// ThresholdMillis is the configured slow threshold (-1 = disabled).
	ThresholdMillis float64 `json:"threshold_ms"`
	// SlowSeen counts every slow request observed since boot, retained
	// or not.
	SlowSeen uint64 `json:"slow_seen"`
	// Traces are the retained slow requests, newest first. Sampled ones
	// carry spans; unsampled ones are coarse records.
	Traces []*obs.Trace `json:"traces"`
}

// maxBodyBytes bounds request bodies (tuple uploads included).
const maxBodyBytes = 64 << 20

// maxSnapshotBytes bounds a resync's binary snapshot body.
const maxSnapshotBytes = 1 << 30

// NewHandler exposes the service over HTTP/JSON (stdlib routing only):
//
//	POST   /v1/indexes                  create an index from tuples
//	GET    /v1/indexes                  list indexes
//	GET    /v1/indexes/{name}           one index's info (incl. persistence state)
//	POST   /v1/indexes/{name}/upsert    incremental reference maintenance
//	POST   /v1/indexes/{name}/snapshot  checkpoint a durable index in place
//	GET    /v1/indexes/{name}/digest    content fingerprint for replica comparison (nodes)
//	GET    /v1/indexes/{name}/export    stream the snapshot encoding (nodes)
//	POST   /v1/indexes/{name}/resync    replace content from a snapshot stream (nodes)
//	DELETE /v1/indexes/{name}           drop an index (and its stored data)
//	POST   /v1/link                     probe one index (single key or batch)
//	GET    /v1/stats                    service counters as JSON
//	GET    /v1/version                  build metadata and uptime
//	GET    /v1/cluster                  cluster role, routing table, replica health
//	GET    /v1/debug/slowlog            retained slow-request traces
//	GET    /v1/debug/requests/{id}      one retained trace by request id
//	GET    /metrics                     Prometheus text exposition
//	GET    /healthz                     liveness (503 while draining)
//
// Every response carries X-Request-ID (echoing the client's when sent);
// the X-Debug-Trace request header forces span collection for that
// request, making its trace retrievable at /v1/debug/requests/{id}.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/indexes", func(w http.ResponseWriter, r *http.Request) {
		answer := func(info IndexInfo, err error) {
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusCreated, info)
		}
		var req CreateIndexRequest
		if !streamBody(w, r, &req, func(body []byte) bool {
			info, handled, err := s.createStreamed(body)
			if handled {
				answer(info, err)
			}
			return handled
		}) {
			return
		}
		opts, err := indexOptions(req)
		if err != nil {
			writeError(w, err)
			return
		}
		answer(s.CreateIndex(req.Name, opts, publicTuples(req.Tuples)))
	})
	mux.HandleFunc("GET /v1/indexes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.ListIndexes())
	})
	mux.HandleFunc("GET /v1/indexes/{name}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.GetIndex(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /v1/indexes/{name}/upsert", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		answer := func(inserted, updated int, err error) {
			if err != nil {
				writeError(w, err)
				return
			}
			info, _ := s.GetIndex(name)
			writeJSON(w, http.StatusOK, UpsertResponse{Inserted: inserted, Updated: updated, Size: info.Size})
		}
		var req UpsertRequest
		if !streamBody(w, r, &req, func(body []byte) bool {
			inserted, updated, handled, err := s.upsertStreamed(name, body)
			if handled {
				answer(inserted, updated, err)
			}
			return handled
		}) {
			return
		}
		answer(s.Upsert(name, publicTuples(req.Tuples)))
	})
	mux.HandleFunc("DELETE /v1/indexes/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.DeleteIndex(r.PathValue("name")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/indexes/{name}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.SnapshotIndex(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /v1/indexes/{name}/digest", func(w http.ResponseWriter, r *http.Request) {
		d, err := s.DigestIndex(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, d)
	})
	mux.HandleFunc("GET /v1/indexes/{name}/export", func(w http.ResponseWriter, r *http.Request) {
		// Stream the snapshot encoding; a failure before the first byte is
		// a normal error response, a failure mid-stream truncates the body
		// and the importer's checksum rejects it.
		name := r.PathValue("name")
		if _, err := s.GetIndex(name); err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := s.ExportIndex(name, w); err != nil {
			writeError(w, err)
		}
	})
	mux.HandleFunc("POST /v1/indexes/{name}/resync", func(w http.ResponseWriter, r *http.Request) {
		// The body is raw snapshot bytes, not JSON; snapshots outgrow the
		// JSON body cap, so resync carries its own.
		r.Body = http.MaxBytesReader(w, r.Body, maxSnapshotBytes)
		data, err := io.ReadAll(r.Body)
		if err != nil {
			writeError(w, fmt.Errorf("%w: reading snapshot body: %v", ErrInvalid, err))
			return
		}
		info, err := s.ResyncIndex(r.PathValue("name"), data)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /v1/link", func(w http.ResponseWriter, r *http.Request) {
		var req LinkRequestDTO
		if !decodeJSON(w, r, &req) {
			return
		}
		keys := req.Keys
		if req.Key != "" {
			if len(keys) > 0 {
				writeError(w, fmt.Errorf("%w: set key or keys, not both", ErrInvalid))
				return
			}
			keys = []string{req.Key}
		}
		resp, err := s.Link(r.Context(), LinkRequest{
			Index:     req.Index,
			Keys:      keys,
			Strategy:  req.Strategy,
			FutilityK: req.FutilityK,
			Timeout:   time.Duration(req.TimeoutMillis) * time.Millisecond,
			Explain:   req.Explain,
		})
		if err != nil {
			writeError(w, err)
			return
		}
		ms := time.Now()
		out := LinkResponseDTO{
			Results: make([]KeyResultDTO, len(keys)), Session: resp.Session,
			Decisions: resp.Decisions,
		}
		for i, key := range keys {
			kr := KeyResultDTO{Key: key, Matches: []MatchDTO{}}
			for _, m := range resp.Results[i] {
				kr.Matches = append(kr.Matches, MatchDTO{
					RefID: m.Ref.ID, RefKey: m.Ref.Key, RefAttrs: m.Ref.Attrs,
					Similarity: m.Similarity, Exact: m.Exact,
				})
			}
			out.Results[i] = kr
		}
		obs.TraceFrom(r.Context()).AddSpan("merge", ms)
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Version())
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Cluster(r.Context()))
	})
	mux.HandleFunc("GET /v1/debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		thresholdMS := float64(-1)
		if d := s.tracer.SlowThreshold(); d >= 0 {
			thresholdMS = float64(d.Nanoseconds()) / 1e6
		}
		traces := s.tracer.Slow()
		if traces == nil {
			traces = []*obs.Trace{}
		}
		writeJSON(w, http.StatusOK, SlowlogDTO{
			ThresholdMillis: thresholdMS,
			SlowSeen:        s.tracer.SlowSeen(),
			Traces:          traces,
		})
	})
	mux.HandleFunc("GET /v1/debug/requests/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		t := s.tracer.Find(id)
		if t == nil {
			writeError(w, fmt.Errorf("%w: no retained trace for request %q (only sampled or slow requests are kept; resend with the X-Debug-Trace header to force one)", ErrNotFound, id))
			return
		}
		writeJSON(w, http.StatusOK, t)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return withObs(s, mux)
}

// errNotStreamed abandons a streamed create whose body turned out not
// to be canonical; the body then takes the synchronous path.
var errNotStreamed = errors.New("create body left the canonical shape")

// createStreamed is a create from a request body whose tuples decode
// on their own goroutine, straight into the rows the index adopts: a
// node's bulk load normalises and homes each as it lands, and a router
// reads them all before it contacts any node. handled is false when the
// body must take the synchronous path (wire.Decode, then CreateIndex),
// which alone defines what a body means: a body wire.StreamCreate does
// not take, and any create that fails before its tuples are known to
// decode — its error may be the body's to report. The rows' strings
// alias body, which the index copies from and never keeps.
func (s *Service) createStreamed(body []byte) (info IndexInfo, handled bool, err error) {
	cs, ok := wire.StreamCreate(body)
	if !ok {
		return IndexInfo{}, false, nil
	}
	opts, err := indexOptions(cs.Head)
	if err != nil {
		return IndexInfo{}, false, nil
	}
	rows := make([]adaptivelink.Tuple, cs.N)
	var decoded atomic.Bool
	src := stream.Filling(rows, func(publish func(int)) error {
		// A wire tuple and an index row differ only in their tags.
		slot := func(i int) *wire.TupleDTO { return (*wire.TupleDTO)(&rows[i]) }
		// A create numbers its tuples in arrival order.
		number := func(done int) {
			rows[done-1].ID = done - 1
			publish(done)
		}
		if !cs.Tuples(slot, number) {
			return errNotStreamed
		}
		decoded.Store(true)
		return nil
	})
	info, err = s.create(cs.Head.Name, opts, src)
	return info, err == nil || decoded.Load(), err
}

// upsertStreamed is an upsert from a request body whose tuples are its
// only member, read as a create body with an empty head: the tuples
// decode straight into the rows the index takes, their strings aliasing
// body. Nothing keeps them past the upsert: the shards copy the bytes
// in, the log encodes them and a router re-encodes them. handled is
// false when the body must be decoded whole (wire.Decode, then Upsert),
// which alone defines what a body means: a body wire.StreamCreate does
// not take, one with any other member, or one that leaves the
// canonical shape partway.
func (s *Service) upsertStreamed(name string, body []byte) (inserted, updated int, handled bool, err error) {
	cs, ok := wire.StreamCreate(body)
	if !ok || !cs.TuplesOnly() {
		return 0, 0, false, nil
	}
	rows := make([]adaptivelink.Tuple, cs.N)
	// A wire tuple and an index row differ only in their tags.
	slot := func(i int) *wire.TupleDTO { return (*wire.TupleDTO)(&rows[i]) }
	if !cs.Tuples(slot, func(int) {}) {
		return 0, 0, false, nil
	}
	inserted, updated, err = s.Upsert(name, rows)
	return inserted, updated, true, err
}

func indexOptions(req CreateIndexRequest) (adaptivelink.IndexOptions, error) {
	opts := adaptivelink.IndexOptions{Q: req.Q, Theta: req.Theta, Shards: req.Shards, Profile: req.Profile}
	if req.Measure == "" {
		return opts, nil // the zero Measure, Jaccard
	}
	// The names are the measures' own String(), which is also what a
	// router sends its nodes.
	m, ok := simfn.ParseMeasure(req.Measure)
	if !ok {
		return opts, fmt.Errorf("%w: unknown measure %q (want jaccard, dice, cosine or overlap)", ErrInvalid, req.Measure)
	}
	opts.Measure = adaptivelink.Measure(m)
	return opts, nil
}

// publicTuples is the index rows of a request's wire tuples.
func publicTuples(dtos []TupleDTO) []adaptivelink.Tuple {
	out := make([]adaptivelink.Tuple, len(dtos))
	for i, d := range dtos {
		out[i] = adaptivelink.Tuple(d)
	}
	return out
}

// decodeJSON reads a request body once, capped at maxBodyBytes, and
// decodes it with wire.Decode; a refused body is a 400 naming the
// decoder's error.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := readBody(w, r)
	return decodeBody(w, body, err, dst)
}

// streamBody reads a request body once, capped at maxBodyBytes, and
// offers it whole to streamed, which reports whether it handled the
// request. A body it leaves, or one cut short, is decoded into dst as
// decodeJSON decodes it. streamBody reports whether dst holds a body
// the caller is to act on.
func streamBody(w http.ResponseWriter, r *http.Request, dst any, streamed func(body []byte) bool) bool {
	body, err := readBody(w, r)
	if err == nil && streamed(body.Bytes()) {
		return false
	}
	return decodeBody(w, body, err, dst)
}

// readBody reads a request body, capped at maxBodyBytes; err is what cut
// it short.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), maxBodyPresize)) + bytes.MinRead)
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return &body, err
}

// decodeBody decodes what readBody read into dst, answering 400 when it
// does not decode.
func decodeBody(w http.ResponseWriter, body *bytes.Buffer, err error, dst any) bool {
	if err == nil {
		err = wire.Decode(body.Bytes(), dst)
	} else {
		// The cap or the connection cut the body short. Streaming the same
		// bytes and then the same error through encoding/json fails the
		// request exactly as decoding straight from the connection would.
		err = wire.DecodeReader(io.MultiReader(body, errReader{err}), dst)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorDTO{Error: ErrorBody{
			Code:    CodeInvalid,
			Message: fmt.Sprintf("invalid request body: %v", err),
		}})
		return false
	}
	return true
}

// maxBodyPresize bounds the buffer a declared Content-Length reserves
// before any byte arrives; a larger body grows it as it is read.
const maxBodyPresize = 8 << 20

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, CodeInternal
	switch {
	case errors.Is(err, ErrInvalid):
		status, code = http.StatusBadRequest, CodeInvalid
	case errors.Is(err, ErrNotFound):
		status, code = http.StatusNotFound, CodeNotFound
	case errors.Is(err, ErrExists):
		status, code = http.StatusConflict, CodeExists
	case errors.Is(err, ErrDraining):
		status, code = http.StatusServiceUnavailable, CodeDraining
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status, code = http.StatusGatewayTimeout, CodeDeadline
	case errors.Is(err, cluster.ErrNodeUnavailable):
		status, code = http.StatusBadGateway, CodeNodeUnavailable
	}
	writeJSON(w, status, ErrorDTO{Error: ErrorBody{Code: code, Message: err.Error()}})
}
