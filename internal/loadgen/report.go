package loadgen

import (
	"fmt"
	"strings"
	"time"

	"proximity/internal/report"
	"proximity/internal/stats"
)

// Report summarizes one load-generation run: throughput, cache
// effectiveness, and the latency distribution (mean, p50/p95/p99, max).
type Report struct {
	Mode     Mode
	Workers  int
	Workload string
	Queries  int
	Hits     int
	Errors   int
	Elapsed  time.Duration
	// TargetQPS is the open-loop offered load (0 for closed loop);
	// AchievedQPS is completed queries over wall-clock time.
	TargetQPS   float64
	AchievedQPS float64

	// Response-time summary over successful queries, measured from each
	// query's INTENDED issue time (the scheduled Poisson arrival in
	// open loop), so backlog queueing delay counts — the coordinated-
	// omission-free view an offered-load probe must report.
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	Max  time.Duration

	// Service-time summary over the same queries, measured from the
	// instant the worker actually issued each request. Under backlog
	// the response percentiles above grow while these stay flat; the
	// gap IS the queueing a service-only view hides. In closed loop the
	// two views coincide (no schedule to fall behind).
	SvcMean time.Duration
	SvcP50  time.Duration
	SvcP95  time.Duration
	SvcP99  time.Duration
	SvcMax  time.Duration

	// FirstError carries the first failure observed (nil if none);
	// Errors counts all of them.
	FirstError error
}

// HitRate returns Hits over successful queries, or 0 with none.
func (r *Report) HitRate() float64 {
	if ok := r.Queries - r.Errors; ok > 0 {
		return float64(r.Hits) / float64(ok)
	}
	return 0
}

// summarize fills the latency summaries from raw samples.
func (r *Report) summarize(samples, services []time.Duration) {
	if r.Elapsed > 0 {
		r.AchievedQPS = float64(len(samples)) / r.Elapsed.Seconds()
	}
	if len(samples) == 0 {
		return
	}
	var rec stats.LatencyRecorder
	for _, s := range samples {
		rec.Record(s)
	}
	r.Mean = rec.Mean()
	r.P50 = rec.Percentile(50)
	r.P95 = rec.Percentile(95)
	r.P99 = rec.Percentile(99)
	r.Max = rec.Max()

	if len(services) == 0 {
		// Closed loop records no separate service samples: with no
		// schedule to fall behind, the views coincide by definition.
		r.SvcMean, r.SvcP50, r.SvcP95, r.SvcP99, r.SvcMax = r.Mean, r.P50, r.P95, r.P99, r.Max
	} else {
		var svc stats.LatencyRecorder
		for _, s := range services {
			svc.Record(s)
		}
		r.SvcMean = svc.Mean()
		r.SvcP50 = svc.Percentile(50)
		r.SvcP95 = svc.Percentile(95)
		r.SvcP99 = svc.Percentile(99)
		r.SvcMax = svc.Max()
	}
}

// Render formats the report: a summary table and the latency quantiles.
func (r *Report) Render() string {
	title := fmt.Sprintf("Load test (%s loop, %d workers", r.Mode, r.Workers)
	if r.Mode == OpenLoop {
		title += fmt.Sprintf(", target %.0f qps", r.TargetQPS)
	}
	title += ")"
	t := report.NewTable(title,
		"workload", "queries", "errors", "hitRate%", "elapsed", "qps")
	t.AddRow(
		r.Workload,
		fmt.Sprintf("%d", r.Queries),
		fmt.Sprintf("%d", r.Errors),
		report.Percent(r.HitRate()),
		r.Elapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.1f", r.AchievedQPS),
	)
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "latency mean=%v p50=%v p95=%v p99=%v max=%v\n",
		r.Mean.Round(time.Microsecond), r.P50.Round(time.Microsecond),
		r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.Max.Round(time.Microsecond))
	if r.Mode == OpenLoop {
		// The response/service gap is the backlog queueing delay; a
		// service line close to the response line means the target kept
		// up with the offered load.
		fmt.Fprintf(&b, "service mean=%v p50=%v p95=%v p99=%v max=%v\n",
			r.SvcMean.Round(time.Microsecond), r.SvcP50.Round(time.Microsecond),
			r.SvcP95.Round(time.Microsecond), r.SvcP99.Round(time.Microsecond),
			r.SvcMax.Round(time.Microsecond))
	}
	if r.FirstError != nil {
		fmt.Fprintf(&b, "first error: %v\n", r.FirstError)
	}
	return b.String()
}
