package service

import (
	"net/http"
	"time"

	"adaptivelink/internal/obs"
)

// Request-observability middleware: every /v1/* and /metrics request
// gets a request id (minted, or propagated from the client's
// X-Request-ID) echoed back in the response, a sampling decision, and —
// when sampled or slow — a retained trace reachable through
// /v1/debug/requests/{id} and /v1/debug/slowlog.
//
// The X-Debug-Trace header forces sampling for one request, so a
// client can always get a full span trace on demand without changing
// the server's sampling rate.

// statusWriter captures the response status for the trace record.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func withObs(s *Service, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = s.tracer.NewID()
		}
		w.Header().Set("X-Request-ID", id)
		route := r.Method + " " + r.URL.Path
		t := s.tracer.Begin(route, id, r.Header.Get("X-Debug-Trace") != "")
		ctx := obs.WithRequestID(r.Context(), id)
		if t != nil {
			ctx = obs.WithTrace(ctx, t)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		total := time.Since(start)
		if s.tracer.End(t, id, route, sw.status, total) {
			s.log.Warn("slow request", "request_id", id, "route", route,
				"status", sw.status, "duration", total.Round(time.Millisecond))
		}
	})
}
