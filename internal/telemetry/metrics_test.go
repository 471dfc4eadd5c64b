package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("proximity_test_total", "test counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("proximity_test_depth", "test gauge")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("proximity_hits_total", "Cache hits.")
	c.Add(42)
	reg.GaugeFunc("proximity_queue_depth", "Queue depth.", func() float64 { return 7 })
	reg.CounterLabeled("proximity_cache_ops_total", "Cache ops.", "op", "get",
		func() float64 { return 10 })
	reg.CounterLabeled("proximity_cache_ops_total", "Cache ops.", "op", "put",
		func() float64 { return 3 })
	h := reg.HistogramLabeled("proximity_stage_latency_seconds",
		"Per-stage latency.", "stage", "cache_lookup")
	h.Observe(100 * time.Microsecond)
	h.Observe(200 * time.Microsecond)
	h.Observe(50 * time.Millisecond)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()

	for _, want := range []string{
		"# HELP proximity_hits_total Cache hits.",
		"# TYPE proximity_hits_total counter",
		"proximity_hits_total 42",
		"# TYPE proximity_queue_depth gauge",
		"proximity_queue_depth 7",
		`proximity_cache_ops_total{op="get"} 10`,
		`proximity_cache_ops_total{op="put"} 3`,
		"# TYPE proximity_stage_latency_seconds histogram",
		`proximity_stage_latency_seconds_bucket{stage="cache_lookup",le="+Inf"} 3`,
		`proximity_stage_latency_seconds_count{stage="cache_lookup"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// One HELP/TYPE block per family even with multiple labeled series.
	if n := strings.Count(out, "# TYPE proximity_cache_ops_total"); n != 1 {
		t.Errorf("cache_ops family has %d TYPE lines, want 1", n)
	}
	// Cumulative le buckets: the 256µs bound must already include both
	// sub-millisecond observations; the +Inf bound includes all three.
	if !strings.Contains(out, `le="0.000256"} 2`) {
		t.Errorf("exposition missing cumulative 256µs bucket with 2 obs\n---\n%s", out)
	}
	// _sum is in seconds.
	if !strings.Contains(out, "proximity_stage_latency_seconds_sum") {
		t.Errorf("exposition missing _sum\n---\n%s", out)
	}
}

func TestRegistryReregisterIdempotent(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("proximity_x", "x", func() float64 { return 1 })
	reg.GaugeFunc("proximity_x", "x", func() float64 { return 2 })
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if n := strings.Count(sb.String(), "\nproximity_x "); n != 1 {
		t.Fatalf("re-registered series appears %d times, want 1\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "proximity_x 2") {
		t.Fatalf("re-registration should replace the source\n%s", sb.String())
	}
	fams := reg.Families()
	if len(fams) != 1 || fams[0] != "proximity_x" {
		t.Fatalf("families = %v", fams)
	}
}

func TestGaugeLabeledAndHistogramUnlabeled(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeLabeled("proximity_shard_entries", "Entries per shard.", "shard", "0",
		func() float64 { return 12 })
	h := reg.Histogram("proximity_request_seconds", "Request latency.")
	h.Observe(time.Millisecond)
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	if !strings.Contains(out, `proximity_shard_entries{shard="0"} 12`) {
		t.Errorf("missing labeled gauge\n%s", out)
	}
	if !strings.Contains(out, `proximity_request_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("missing unlabeled histogram buckets\n%s", out)
	}
}

// TestPromHistogramLeInclusive: every le line of an exposed histogram
// counts exactly the observations ≤ its bound, and _count and _sum add
// them all up. It observes a negative duration (counted as 0), 0, every
// bound, one ns under and one ns over each, and a value past the last.
func TestPromHistogramLeInclusive(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("proximity_request_seconds", "Request latency.")
	const bounds = 24 // 1µs·2ᵏ, k = 0..23
	obs := []time.Duration{-time.Second, 0}
	for k := range bounds {
		b := time.Microsecond << k
		obs = append(obs, b-1, b, b+1)
	}
	obs = append(obs, time.Microsecond<<bounds)
	for _, d := range obs {
		h.Observe(d)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	lines := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `proximity_request_seconds_bucket{le="`)
		if !ok {
			continue
		}
		le, count, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		bound := time.Duration(math.MaxInt64)
		if le != "+Inf" {
			sec, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatal(err)
			}
			bound = time.Duration(math.Round(sec * 1e9))
		}
		want := 0
		for _, d := range obs {
			if d <= bound {
				want++
			}
		}
		if count != strconv.Itoa(want) {
			t.Errorf("le=%q counts %s observations, want %d", le, count, want)
		}
		lines++
	}
	if lines != bounds+1 {
		t.Fatalf("%d bucket lines, want %d", lines, bounds+1)
	}
	var sum time.Duration
	for _, d := range obs {
		sum += max(d, 0)
	}
	for _, want := range []string{
		fmt.Sprintf("proximity_request_seconds_count %d\n", len(obs)),
		fmt.Sprintf("proximity_request_seconds_sum %s\n", fmtFloat(sum.Seconds())),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

func TestFmtFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		42:     "42",
		-3:     "-3",
		1.5:    "1.5",
		0.0001: "0.0001",
	}
	for in, want := range cases {
		if got := fmtFloat(in); got != want {
			t.Errorf("fmtFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// The series kinds below have no caller outside the tests. Counter and
// Gauge publish through CounterFunc and GaugeFunc, the labeled forms and
// the unlabeled histogram through the registry's one register path.

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Counter registers a new counter series.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, func() float64 { return float64(c.Value()) })
	return c
}

// Gauge registers a new gauge series.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, g.Value)
	return g
}

// GaugeLabeled is GaugeFunc with one fixed label pair.
func (r *Registry) GaugeLabeled(name, help, label, value string, fn func() float64) {
	r.register(&series{name: name, kind: kindGauge, help: help, fn: fn,
		labels: fmt.Sprintf("%s=%q", label, value)})
}

// CounterLabeled is CounterFunc with one fixed label pair.
func (r *Registry) CounterLabeled(name, help, label, value string, fn func() float64) {
	r.register(&series{name: name, kind: kindCounter, help: help, fn: fn,
		labels: fmt.Sprintf("%s=%q", label, value)})
}

// Histogram registers a new unlabeled histogram series.
func (r *Registry) Histogram(name, help string) *LatencyHistogram {
	h := NewLatencyHistogram()
	r.register(&series{name: name, kind: kindHistogram, help: help, hist: h})
	return h
}

// Families returns the registered family names, sorted.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, s := range r.series {
		if !seen[s.name] {
			seen[s.name] = true
			out = append(out, s.name)
		}
	}
	sort.Strings(out)
	return out
}
