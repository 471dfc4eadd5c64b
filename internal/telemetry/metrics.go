package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
)

// metricKind tags a registered series for exposition.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

// series is one registered time series: a family name plus an optional
// pre-rendered label set, backed by a live value source.
type series struct {
	name   string // family name, e.g. proximity_stage_latency_seconds
	labels string // pre-rendered, e.g. `stage="cache_lookup"` (may be empty)
	kind   metricKind
	help   string

	hist *LatencyHistogram
	fn   func() float64 // CounterFunc / GaugeFunc source
}

// Registry holds the process's metric series and renders them in the
// Prometheus text exposition format. Registration is cheap and happens at
// wiring time; counters and gauges are read from their sources at scrape
// time, and the observation hot paths touch only the returned
// LatencyHistogram values, never the registry lock.
type Registry struct {
	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// register adds a series, replacing any previous registration of the same
// (name, labels) pair — re-registration keeps wiring idempotent.
func (r *Registry) register(s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := s.name + "{" + s.labels + "}"
	if old, ok := r.byKey[key]; ok {
		*old = *s
		return
	}
	r.byKey[key] = s
	r.series = append(r.series, s)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for counters owned elsewhere (cache hit/miss totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&series{name: name, kind: kindCounter, help: help, fn: fn})
}

// GaugeFunc registers a gauge read from fn at scrape time (queue depth,
// goroutine count, heap bytes).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&series{name: name, kind: kindGauge, help: help, fn: fn})
}

// HistogramLabeled registers a histogram with one fixed label pair —
// how the per-stage latency family shares a name across stages.
func (r *Registry) HistogramLabeled(name, help, label, value string) *LatencyHistogram {
	h := NewLatencyHistogram()
	r.register(&series{
		name: name, kind: kindHistogram, help: help, hist: h,
		labels: fmt.Sprintf("%s=%q", label, value),
	})
	return h
}

// expoLe is the fixed bucket boundary list (seconds) used for histogram
// exposition: one bound per octave from 1µs to ~8.6s plus +Inf. The
// internal layout keeps 8 sub-buckets per octave for quantile precision;
// exposition collapses to octaves so a scrape carries 25 series per
// histogram instead of 320.
var expoLe = func() []float64 {
	out := make([]float64, 0, 24)
	for ns := int64(1000); ns <= int64(1000)<<23; ns <<= 1 {
		out = append(out, float64(ns)/1e9)
	}
	return out
}()

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), grouping series that share a family
// name under one HELP/TYPE header.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	all := make([]*series, len(r.series))
	copy(all, r.series)
	r.mu.Unlock()

	// Group by family name, preserving registration order of first
	// appearance (Prometheus requires one HELP/TYPE block per family).
	order := make([]string, 0, len(all))
	families := make(map[string][]*series, len(all))
	for _, s := range all {
		if _, ok := families[s.name]; !ok {
			order = append(order, s.name)
		}
		families[s.name] = append(families[s.name], s)
	}
	for _, name := range order {
		group := families[name]
		kind := "counter"
		switch group[0].kind {
		case kindGauge:
			kind = "gauge"
		case kindHistogram:
			kind = "histogram"
		}
		fmt.Fprintf(w, "# HELP %s %s\n", name, group[0].help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		for _, s := range group {
			switch s.kind {
			case kindCounter, kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", s.name, renderLabels(s.labels), fmtFloat(s.fn()))
			case kindHistogram:
				writePromHistogram(w, s)
			}
		}
	}
}

// writePromHistogram renders one histogram series: cumulative le buckets
// on the octave boundaries, then _sum and _count.
func writePromHistogram(w io.Writer, s *series) {
	snap := s.hist.Snapshot()
	var cum int64
	next := 0
	for _, le := range expoLe {
		bound := int64(le * 1e9)
		for next < numBuckets && bucketUpper(next) <= bound {
			cum += snap.Buckets[next]
			next++
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, renderLabels(s.labels, fmt.Sprintf("le=%q", fmtFloat(le))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, renderLabels(s.labels, `le="+Inf"`), snap.N)
	fmt.Fprintf(w, "%s_sum%s %s\n", s.name, renderLabels(s.labels), fmtFloat(float64(snap.SumNs)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", s.name, renderLabels(s.labels), snap.N)
}

// renderLabels joins non-empty label fragments into {a="b",c="d"} form.
func renderLabels(fragments ...string) string {
	parts := fragments[:0:0]
	for _, f := range fragments {
		if f != "" {
			parts = append(parts, f)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// fmtFloat renders a float the way Prometheus expects: integral values
// without an exponent, everything else in shortest-round-trip form.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
