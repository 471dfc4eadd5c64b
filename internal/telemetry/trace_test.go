package telemetry

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4, 16)
	sampled := 0
	for i := 0; i < 100; i++ {
		ctx, trace := tr.Start(context.Background())
		if trace != nil {
			sampled++
			if FromContext(ctx) != trace {
				t.Fatal("context does not carry the trace")
			}
			trace.Finish()
		} else if FromContext(ctx) != nil {
			t.Fatal("unsampled context carries a trace")
		}
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at 1-in-4, want 25", sampled)
	}
}

func TestTracerDisabled(t *testing.T) {
	tr := NewTracer(0, 4)
	ctx, trace := tr.Start(context.Background())
	if trace != nil {
		t.Fatal("disabled tracer returned a trace")
	}
	if FromContext(ctx) != nil {
		t.Fatal("disabled tracer modified the context")
	}
	// nil tracer / nil trace are valid no-op receivers throughout.
	var nilTr *Tracer
	if _, trace := nilTr.Start(context.Background()); trace != nil {
		t.Fatal("nil tracer returned a trace")
	}
	if got := nilTr.Recent(5); got != nil {
		t.Fatal("nil tracer returned traces")
	}
	var nilTrace *Trace
	nilTrace.StartSpan(StageDBSearch)(nil)
	nilTrace.AddSpans([]Span{{}})
	nilTrace.Finish()
	if nilTrace.ID() != 0 || nilTrace.Spans() != nil {
		t.Fatal("nil trace should be inert")
	}
}

func TestTraceSpansAndRing(t *testing.T) {
	tr := NewTracer(1, 4)
	var ids []uint64
	for i := 0; i < 6; i++ {
		_, trace := tr.Start(context.Background())
		finish := trace.StartSpan(StageCacheLookup)
		time.Sleep(100 * time.Microsecond)
		finish(nil)
		trace.StartSpan(StageDBSearch)(errors.New("boom"))
		ids = append(ids, trace.ID())
		trace.Finish()
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4 (size cap)", len(recent))
	}
	// Newest first: the last finished trace leads.
	if recent[0].ID != ids[len(ids)-1] {
		t.Fatalf("recent[0].ID = %d, want %d", recent[0].ID, ids[len(ids)-1])
	}
	if got := tr.Recent(2); len(got) != 2 {
		t.Fatalf("Recent(2) returned %d", len(got))
	}
	rec := recent[0]
	if len(rec.Spans) != 2 {
		t.Fatalf("record has %d spans, want 2", len(rec.Spans))
	}
	if rec.Spans[0].Stage != StageCacheLookup || rec.Spans[0].Dur < 50*time.Microsecond {
		t.Errorf("span 0 = %+v", rec.Spans[0])
	}
	if rec.Spans[1].Err != "boom" {
		t.Errorf("span 1 error = %q, want boom", rec.Spans[1].Err)
	}
	if rec.Total <= 0 {
		t.Errorf("record total = %d", rec.Total)
	}
}

func TestForeignTrace(t *testing.T) {
	tr := NewTracer(1, 4)
	ctx, trace := tr.StartForeign(context.Background(), 0xabcd)
	if trace.ID() != 0xabcd {
		t.Fatalf("foreign trace ID = %x", trace.ID())
	}
	FromContext(ctx).StartSpan(StageDBSearch)(nil)
	spans := trace.Spans()
	trace.Finish()
	if len(spans) != 1 {
		t.Fatalf("foreign trace spans = %d, want 1", len(spans))
	}
	if got := tr.Recent(0); len(got) != 0 {
		t.Fatalf("foreign trace leaked into the ring: %d records", len(got))
	}
	if _, trace := tr.StartForeign(context.Background(), 0); trace != nil {
		t.Fatal("zero foreign ID should not trace")
	}
}

func TestTraceIDCodec(t *testing.T) {
	for _, id := range []uint64{1, 0xabcd, ^uint64(0)} {
		s := FormatTraceID(id)
		got, ok := ParseTraceID(s)
		if !ok || got != id {
			t.Errorf("round trip %x -> %q -> %x ok=%v", id, s, got, ok)
		}
	}
	for _, bad := range []string{"", "xyz", "00000000000000000", "0000000000000000"} {
		if id, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) = %x, want reject", bad, id)
		}
	}
	if id, ok := ParseTraceID("ABCD"); !ok || id != 0xabcd {
		t.Errorf("uppercase parse = %x ok=%v", id, ok)
	}
}

func TestSpanCodec(t *testing.T) {
	in := []Span{
		{Stage: StageNodeRPC, Node: "127.0.0.1:9", Offset: time.Millisecond, Dur: 2 * time.Millisecond},
		{Stage: StageDBSearch, Dur: time.Microsecond, Err: "x"},
	}
	s, err := MarshalSpans(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalSpans(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if s, err := MarshalSpans(nil); err != nil || s != "" {
		t.Fatalf("empty marshal = %q, %v", s, err)
	}
	if out, err := UnmarshalSpans(""); err != nil || out != nil {
		t.Fatalf("empty unmarshal = %v, %v", out, err)
	}
	if _, err := UnmarshalSpans("{broken"); err == nil {
		t.Fatal("malformed span header should error")
	}
}

// FuzzUnmarshalSpans feeds arbitrary TraceSpanHeader values — bytes a
// peer node chose — to UnmarshalSpans. It must not panic; every stage it
// decodes must print one of the known labels (an unknown or retired one
// decodes as cache_lookup); and re-encoding what it decoded must decode
// to the same spans. Its seeds are the committed corpus under
// testdata/fuzz/FuzzUnmarshalSpans.
func FuzzUnmarshalSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, header string) {
		spans, err := UnmarshalSpans(header)
		if err != nil {
			return
		}
		for i, sp := range spans {
			if !slices.Contains(stageNames[:], sp.Stage.String()) {
				t.Fatalf("span %d: stage %d prints %q, not a known label", i, sp.Stage, sp.Stage)
			}
		}
		again, err := MarshalSpans(spans)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", spans, err)
		}
		back, err := UnmarshalSpans(again)
		if err != nil {
			t.Fatalf("decoding the re-encoded %q: %v", again, err)
		}
		if !slices.Equal(back, spans) {
			t.Fatalf("round trip through %q:\n%+v\nwant\n%+v", again, back, spans)
		}
	})
}

func TestAddSpansGraft(t *testing.T) {
	tr := NewTracer(1, 4)
	_, trace := tr.Start(context.Background())
	trace.StartSpan(StageCacheLookup)(nil)
	trace.AddSpans([]Span{{Stage: StageDBSearch, Node: "remote", Dur: time.Second}})
	trace.AddSpans(nil)
	spans := trace.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[1].Node != "remote" {
		t.Errorf("grafted span = %+v", spans[1])
	}
	trace.Finish()
}

func TestStartSpanLinked(t *testing.T) {
	tr := NewTracer(1, 4)
	_, leader := tr.Start(context.Background())
	_, follower := tr.Start(context.Background())
	follower.StartSpanLinked(StageCoalesceWait, leader.ID())(nil)
	follower.StartSpanLinked(StageCacheLookup, 0)(nil)
	spans := follower.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Link != leader.ID() || leader.ID() == 0 {
		t.Errorf("linked span Link = %d, want leader %d", spans[0].Link, leader.ID())
	}
	if spans[1].Link != 0 {
		t.Errorf("zero-link span carries Link = %d", spans[1].Link)
	}
	// The link must survive the wire codec, and a zero link must be
	// omitted from the JSON entirely.
	s, err := MarshalSpans(spans)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalSpans(s)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Link != leader.ID() {
		t.Errorf("link lost in codec: %+v", out[0])
	}
	if strings.Count(s, `"link"`) != 1 {
		t.Errorf("zero link should be omitted from JSON: %s", s)
	}
	// Nil traces stay no-ops.
	var nilTrace *Trace
	nilTrace.StartSpanLinked(StageCoalesceWait, 7)(nil)
	follower.Finish()
	leader.Finish()
}
