// Package obs is the service's observability layer: request traces
// with span timings, a sampling gate, and lock-free ring buffers
// retaining the recent sampled traces plus a slow-request log.
//
// The design contract is allocation discipline on the hot path:
//
//   - Sampling is decided with one atomic increment. An unsampled
//     request allocates NOTHING here — Begin returns nil, and every
//     *Trace method is nil-safe, so callers thread the (possibly nil)
//     trace through unconditionally.
//   - A sampled request allocates one Trace and its span slice —
//     bounded, request-scoped, and amortised by the sampling ratio.
//   - Ring publication is an atomic pointer store; readers load
//     pointers and only ever see fully finished traces (a Trace is
//     immutable once recorded). No locks anywhere.
//
// Slow-request capture is independent of sampling: a request at or
// over the threshold always lands in the slow ring (with spans when it
// happened to be sampled, without when not), so the slowlog never
// misses an outlier just because the sampler skipped it.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Defaults for Config's zero values.
const (
	DefaultSampleEvery   = 16
	DefaultSlowThreshold = 500 * time.Millisecond
	DefaultCapacity      = 256
	DefaultSlowCapacity  = 128
)

// Config sizes a Tracer. Zero values select the defaults above;
// negative SampleEvery disables sampling (slow capture still runs) and
// negative SlowThreshold disables the slow log.
type Config struct {
	// SampleEvery samples one of every N requests for a full span
	// trace (0 = DefaultSampleEvery, <0 = sampling off).
	SampleEvery int
	// SlowThreshold is the duration at or above which a request enters
	// the slow ring regardless of sampling (0 = DefaultSlowThreshold,
	// <0 = slow capture off).
	SlowThreshold time.Duration
	// capacity is the recent-sampled ring size (0 = DefaultCapacity).
	// Only this package's tests shrink it, to force ring wrap.
	capacity int
	// SlowCapacity is the slow ring size (0 = DefaultSlowCapacity).
	SlowCapacity int
}

func (c Config) resolved() Config {
	if c.SampleEvery == 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = DefaultSlowThreshold
	}
	if c.capacity <= 0 {
		c.capacity = DefaultCapacity
	}
	if c.SlowCapacity <= 0 {
		c.SlowCapacity = DefaultSlowCapacity
	}
	return c
}

// Span is one timed section of a request, offset-relative to the
// request's start.
type Span struct {
	Name        string  `json:"name"`
	StartMillis float64 `json:"start_ms"`
	DurMillis   float64 `json:"duration_ms"`
}

// Trace is one request's record. It is mutated only by the goroutine
// serving the request and becomes immutable once recorded into a ring
// (the atomic pointer store publishes it to readers).
type Trace struct {
	ID        string    `json:"request_id"`
	Route     string    `json:"route"`
	Index     string    `json:"index,omitempty"`
	Keys      int       `json:"keys,omitempty"`
	Status    int       `json:"status"`
	Start     time.Time `json:"start"`
	DurMillis float64   `json:"duration_ms"`
	// Sampled reports whether span collection was on; a slow but
	// unsampled request appears in the slow ring with Sampled false and
	// no spans.
	Sampled bool   `json:"sampled"`
	Spans   []Span `json:"spans,omitempty"`
}

// SetTarget records what the request operated on. Nil-safe. The trace
// keeps a copy of index: a name decoded from a request body shares one
// allocation with every string of that body, which a ring entry would
// otherwise hold for as long as it is retained.
func (t *Trace) SetTarget(index string, keys int) {
	if t == nil {
		return
	}
	t.Index, t.Keys = strings.Clone(index), keys
}

// AddSpan appends a span covering from..now. Nil-safe, so callers on
// the hot path need no sampling branch of their own.
func (t *Trace) AddSpan(name string, from time.Time) {
	if t == nil {
		return
	}
	t.AddSpanDur(name, from, time.Since(from))
}

// AddSpanDur appends a span of an explicit duration. Nil-safe.
func (t *Trace) AddSpanDur(name string, from time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, Span{
		Name:        name,
		StartMillis: float64(from.Sub(t.Start).Microseconds()) / 1000,
		DurMillis:   float64(d.Microseconds()) / 1000,
	})
}

// ring is a lock-free overwrite-oldest trace buffer: one atomic cursor
// claims slots, atomic pointer stores publish finished traces.
type ring struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

func newRing(capacity int) *ring {
	return &ring{slots: make([]atomic.Pointer[Trace], capacity)}
}

func (r *ring) add(t *Trace) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// snapshot returns the retained traces, newest first. Concurrent adds
// may race individual slots; every returned trace is nonetheless a
// fully published one.
func (r *ring) snapshot() []*Trace {
	n := len(r.slots)
	cursor := r.next.Load()
	out := make([]*Trace, 0, n)
	for k := 0; k < n; k++ {
		idx := (cursor + uint64(n) - 1 - uint64(k)) % uint64(n)
		if t := r.slots[idx].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

func (r *ring) find(id string) *Trace {
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil && t.ID == id {
			return t
		}
	}
	return nil
}

// Tracer mints request ids, decides sampling and retains finished
// traces. Safe for concurrent use; every operation is lock-free.
type Tracer struct {
	cfg      Config
	idPrefix string
	idSeq    atomic.Uint64
	sampleN  atomic.Uint64
	recent   *ring
	slow     *ring
	slowSeen atomic.Uint64
	sampled  atomic.Uint64
}

// NewTracer builds a tracer with cfg's zero values defaulted.
func NewTracer(cfg Config) *Tracer {
	cfg = cfg.resolved()
	var b [4]byte
	rand.Read(b[:])
	return &Tracer{
		cfg:      cfg,
		idPrefix: hex.EncodeToString(b[:]),
		recent:   newRing(cfg.capacity),
		slow:     newRing(cfg.SlowCapacity),
	}
}

// Config returns the resolved configuration.
func (tr *Tracer) Config() Config { return tr.cfg }

// SlowThreshold is the resolved slow threshold (negative = disabled).
func (tr *Tracer) SlowThreshold() time.Duration { return tr.cfg.SlowThreshold }

// NewID mints a process-unique request id (boot-random prefix plus a
// sequence number).
func (tr *Tracer) NewID() string {
	return fmt.Sprintf("%s-%06d", tr.idPrefix, tr.idSeq.Add(1))
}

// Begin starts a trace for the request when the sampler (or force)
// selects it, and returns nil otherwise — the nil is threaded through
// the request unchanged and costs nothing.
func (tr *Tracer) Begin(route, id string, force bool) *Trace {
	if !force {
		if tr.cfg.SampleEvery < 0 {
			return nil
		}
		n := tr.sampleN.Add(1)
		if n%uint64(tr.cfg.SampleEvery) != 1%uint64(tr.cfg.SampleEvery) {
			return nil
		}
	}
	tr.sampled.Add(1)
	return &Trace{
		ID:      id,
		Route:   route,
		Start:   time.Now(),
		Sampled: true,
		Spans:   make([]Span, 0, 8),
	}
}

// End finalises and retains the request's record: a sampled trace goes
// to the recent ring, and any request at or over the slow threshold —
// sampled or not — goes to the slow ring. It reports whether the
// request was slow (so the caller can log it).
func (tr *Tracer) End(t *Trace, id, route string, status int, total time.Duration) (slow bool) {
	slow = tr.cfg.SlowThreshold >= 0 && total >= tr.cfg.SlowThreshold
	if t == nil {
		if !slow {
			return false
		}
		// Slow but unsampled: retain a coarse record (no spans were
		// collected, by design — collecting them would put allocations
		// on every request).
		t = &Trace{ID: id, Route: route, Start: time.Now().Add(-total)}
	}
	t.Status = status
	t.DurMillis = float64(total.Microseconds()) / 1000
	if t.Sampled {
		tr.recent.add(t)
	}
	if slow {
		tr.slowSeen.Add(1)
		tr.slow.add(t)
	}
	return slow
}

// Recent returns the retained sampled traces, newest first.
func (tr *Tracer) Recent() []*Trace { return tr.recent.snapshot() }

// Slow returns the retained slow traces, newest first.
func (tr *Tracer) Slow() []*Trace { return tr.slow.snapshot() }

// SlowSeen is the total number of slow requests observed (not just
// those still retained).
func (tr *Tracer) SlowSeen() uint64 { return tr.slowSeen.Load() }

// SampledSeen is the total number of requests that got a span trace.
func (tr *Tracer) SampledSeen() uint64 { return tr.sampled.Load() }

// Find returns a retained trace by request id (recent ring first, then
// slow), or nil — only sampled or slow requests are retained.
func (tr *Tracer) Find(id string) *Trace {
	if t := tr.recent.find(id); t != nil {
		return t
	}
	return tr.slow.find(id)
}

type ctxKey int

const (
	traceKey ctxKey = iota
	requestIDKey
)

// WithTrace attaches a sampled trace to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// TraceFrom returns the context's trace, or nil (the common, unsampled
// case — safe to call every *Trace method on).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// WithRequestID attaches the request id to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request id ("" if none).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}
