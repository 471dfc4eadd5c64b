// Package a is the stagenames golden fixture: literal series names and
// locally minted constants are flagged; registry constants and names
// threaded through variables pass.
package a

import "proximity/internal/telemetry"

// localName is a constant, but minted outside the telemetry registry —
// a second vocabulary waiting to drift.
const localName = "proximity_local_hits_total"

func register(reg *telemetry.Registry) {
	reg.CounterFunc("proximity_typo_hits_total", "Hits.", hits) // want "series name literal passed to Registry.CounterFunc"
	reg.GaugeFunc("proximity_typo_depth", "Depth.",             // want "series name literal passed to Registry.GaugeFunc"
		func() float64 { return 0 })
	reg.CounterFunc(localName, "Hits.", hits) // want "series name constant localName declared outside internal/telemetry"

	reg.CounterFunc(telemetry.MetricCacheHitsTotal, "Hits.", hits) // registry constant: clean
	reg.HistogramLabeled(telemetry.MetricStageLatencySeconds,
		"Latency.", "stage", telemetry.StageCacheLookup.String())

	//proximity:allow stagenames experiment-local series, not part of the product vocabulary
	reg.CounterFunc("proximity_experiment_total", "Experiment.", hits)
}

// threaded accepts any name the caller resolved upstream.
func threaded(reg *telemetry.Registry, name string) {
	reg.CounterFunc(name, "Caller-resolved.", hits)
}

func hits() float64 { return 0 }
