package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP request header that carries a trace ID across
// cluster hops. A node that receives it records its own spans under the
// same ID and returns them to the caller via TraceSpanHeader, so a
// distributed query stitches into one timeline at the originating router.
const (
	TraceHeader     = "X-Proximity-Trace"
	TraceSpanHeader = "X-Proximity-Trace-Spans"
)

// Span is one timed stage within a trace. Offset is relative to the
// trace's start on the recording process's clock; cross-node spans carry
// their own node label and are aligned only approximately (no clock
// sync), which is fine for attribution. Link, when nonzero, is the ID of
// a *different* trace this span's time is attributable to — a coalesce
// follower's wait links to the leader's trace, so leader traces remain
// discoverable from every request they served.
type Span struct {
	Stage  Stage         `json:"stage"`
	Node   string        `json:"node,omitempty"`
	Offset time.Duration `json:"offset_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Err    string        `json:"err,omitempty"`
	Link   uint64        `json:"link,omitempty"`
}

// Trace accumulates the spans of one sampled request. Traces are pooled;
// obtain them from a Tracer and never retain one after Finish.
type Trace struct {
	mu    sync.Mutex
	id    uint64
	start time.Time
	spans []Span

	tracer  *Tracer
	foreign bool // span-set belongs to a remote parent; don't ring-buffer
}

// ID returns the trace's identifier.
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// StartSpan opens a span for stage and returns a finish function.
// Callers invoke finish exactly once (deferred or explicit); a nil Trace
// returns a no-op finish so unsampled requests pay only a nil check.
func (t *Trace) StartSpan(stage Stage) func(err error) {
	return t.StartSpanNode(stage, "")
}

// StartSpanNode is StartSpan with a node label: the router's view of a
// remote hop records which node it called, while the node's own spans
// (grafted via AddSpans) are labeled by the router on arrival.
func (t *Trace) StartSpanNode(stage Stage, node string) func(err error) {
	return t.startSpan(stage, node, 0)
}

// StartSpanLinked is StartSpan with a link to another trace: the span's
// time is attributed to the linked trace's work (a coalesce follower's
// wait links to the leader that ran the search). A zero link behaves
// exactly like StartSpan.
func (t *Trace) StartSpanLinked(stage Stage, link uint64) func(err error) {
	return t.startSpan(stage, "", link)
}

func (t *Trace) startSpan(stage Stage, node string, link uint64) func(err error) {
	if t == nil {
		return finishNoop
	}
	begin := time.Now()
	return func(err error) {
		end := time.Now()
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		t.mu.Lock()
		t.spans = append(t.spans, Span{
			Stage:  stage,
			Node:   node,
			Offset: begin.Sub(t.start),
			Dur:    end.Sub(begin),
			Err:    msg,
			Link:   link,
		})
		t.mu.Unlock()
	}
}

// finishNoop is the shared finish for nil traces.
func finishNoop(error) {}

// AddSpans grafts externally recorded spans (a remote node's timeline,
// decoded from TraceSpanHeader) into this trace.
func (t *Trace) AddSpans(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// Spans returns a copy of the spans recorded so far.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// TraceRecord is a completed trace as stored in the ring buffer and
// served at /v1/traces.
type TraceRecord struct {
	ID    uint64    `json:"id"`
	Start time.Time `json:"start"`
	Total int64     `json:"total_ns"`
	Spans []Span    `json:"spans"`
}

// MarshalSpans encodes spans as the compact JSON carried in
// TraceSpanHeader.
func MarshalSpans(spans []Span) (string, error) {
	if len(spans) == 0 {
		return "", nil
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// UnmarshalSpans decodes a TraceSpanHeader value.
func UnmarshalSpans(s string) ([]Span, error) {
	if s == "" {
		return nil, nil
	}
	var spans []Span
	if err := json.Unmarshal([]byte(s), &spans); err != nil {
		return nil, fmt.Errorf("telemetry: bad span header: %w", err)
	}
	return spans, nil
}

// FormatTraceID renders a trace ID for the wire header.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID parses a wire header back into an ID. Returns 0, false on
// malformed input (the request then simply runs untraced).
func ParseTraceID(s string) (uint64, bool) {
	if len(s) == 0 || len(s) > 16 {
		return 0, false
	}
	var id uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		id = id<<4 | d
	}
	if id == 0 {
		return 0, false
	}
	return id, true
}

// Tracer samples 1 in every SampleEvery requests into pooled Traces and
// keeps the most recent completed ones in a fixed ring. SampleEvery <= 0
// disables sampling entirely: Start returns nil and the request path
// costs one field read.
type Tracer struct {
	sampleEvery int64
	seq         atomic.Uint64 // request counter for sampling
	nextID      atomic.Uint64 // trace ID allocator

	pool sync.Pool

	ringMu  sync.Mutex
	ring    []TraceRecord
	ringPos int
	ringLen int
}

// NewTracer creates a tracer sampling 1-in-sampleEvery requests into a
// ring of ringSize completed traces. sampleEvery <= 0 disables tracing;
// ringSize <= 0 defaults to 64.
func NewTracer(sampleEvery, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = 64
	}
	t := &Tracer{sampleEvery: int64(sampleEvery), ring: make([]TraceRecord, ringSize)}
	t.pool.New = func() any { return &Trace{spans: make([]Span, 0, 8)} }
	return t
}

// Start decides whether this request is sampled. If so it returns a
// derived context carrying a live Trace plus the trace itself; otherwise
// it returns ctx unchanged and a nil Trace (all of whose methods no-op).
func (tr *Tracer) Start(ctx context.Context) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	every := tr.sampleEvery
	if every <= 0 {
		return ctx, nil
	}
	if tr.seq.Add(1)%uint64(every) != 0 {
		return ctx, nil
	}
	t := tr.get(tr.nextID.Add(1), false)
	return ContextWithTrace(ctx, t), t
}

// StartForeign begins recording under an externally assigned trace ID —
// a node serving a routed query whose parent lives on another process.
// The trace is always sampled (the parent already made the sampling
// decision) and is NOT ring-buffered here; its spans travel back to the
// parent in the response header.
func (tr *Tracer) StartForeign(ctx context.Context, id uint64) (context.Context, *Trace) {
	if tr == nil || id == 0 {
		return ctx, nil
	}
	t := tr.get(id, true)
	return ContextWithTrace(ctx, t), t
}

// get pulls a pooled trace and resets it.
func (tr *Tracer) get(id uint64, foreign bool) *Trace {
	t := tr.pool.Get().(*Trace)
	t.id = id
	t.start = time.Now()
	t.spans = t.spans[:0]
	t.tracer = tr
	t.foreign = foreign
	return t
}

// Finish completes the trace: locally originated traces are copied into
// the ring buffer; foreign ones are simply returned to the pool (their
// spans were already shipped). The trace must not be used after Finish.
func (t *Trace) Finish() {
	if t == nil || t.tracer == nil {
		return
	}
	tr := t.tracer
	if !t.foreign {
		rec := TraceRecord{
			ID:    t.id,
			Start: t.start,
			Total: int64(time.Since(t.start)),
			Spans: append([]Span(nil), t.spans...),
		}
		tr.ringMu.Lock()
		tr.ring[tr.ringPos] = rec
		tr.ringPos = (tr.ringPos + 1) % len(tr.ring)
		if tr.ringLen < len(tr.ring) {
			tr.ringLen++
		}
		tr.ringMu.Unlock()
	}
	t.tracer = nil
	tr.pool.Put(t)
}

// Recent returns up to n of the most recently completed traces, newest
// first. n <= 0 returns them all.
func (tr *Tracer) Recent(n int) []TraceRecord {
	if tr == nil {
		return nil
	}
	tr.ringMu.Lock()
	defer tr.ringMu.Unlock()
	if n <= 0 || n > tr.ringLen {
		n = tr.ringLen
	}
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (tr.ringPos - 1 - i + len(tr.ring)*2) % len(tr.ring)
		out = append(out, tr.ring[idx])
	}
	return out
}

// traceKey is the context key for the active trace.
type traceKey struct{}

// ContextWithTrace returns ctx carrying t.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext extracts the active trace, or nil — nil is a valid Trace
// receiver for StartSpan/AddSpans/Finish, so callers never branch.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
