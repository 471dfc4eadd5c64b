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

// writePromHistogram renders one histogram series: the stored buckets
// as cumulative le buckets, one per octave from 1µs to ≈ 8.4s, then
// _sum and _count. Concurrent writers may move the histogram
// mid-render; the series are then off by in-flight observations, which
// is acceptable for monitoring.
func writePromHistogram(w io.Writer, s *series) {
	var cum int64
	for k := range numBounds {
		cum += s.hist.buckets[k].Load()
		le := fmtFloat(float64(int64(1000)<<k) / 1e9)
		fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, renderLabels(s.labels, fmt.Sprintf("le=%q", le)), cum)
	}
	n := s.hist.count.Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, renderLabels(s.labels, `le="+Inf"`), n)
	fmt.Fprintf(w, "%s_sum%s %s\n", s.name, renderLabels(s.labels), fmtFloat(float64(s.hist.sum.Load())/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", s.name, renderLabels(s.labels), n)
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
