package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelectFigures(t *testing.T) {
	available := append([]figure{}, figures...)
	available = append(available, figure{name: "rebalance"})

	all, err := selectFigures("all", available)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(figures) {
		t.Errorf("all selected %d figures, want %d", len(all), len(figures))
	}
	for _, f := range all {
		if f.name == "rebalance" {
			t.Error("'all' should not include rebalance")
		}
	}

	some, err := selectFigures("fig2, fig10", available)
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].name != "fig2" || some[1].name != "fig10" {
		t.Errorf("selection = %v", some)
	}

	rb, err := selectFigures("rebalance", available)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb) != 1 || rb[0].name != "rebalance" {
		t.Errorf("rebalance selection = %v", rb)
	}

	if _, err := selectFigures("fig99", available); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestRunListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Errorf("-list should succeed: %v", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := run([]string{"-experiment", "loadtest"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("loadtest is not an experiment: err = %v, want unknown experiment", err)
	}
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag should error")
	}
}

func TestRunSingleQuickExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI smoke test in -short mode")
	}
	// opcount is the cheapest full experiment.
	if err := run([]string{"-quick", "-experiment", "opcount"}); err != nil {
		t.Errorf("quick opcount run failed: %v", err)
	}
}

func TestParseEntryCounts(t *testing.T) {
	got, err := parseEntryCounts("entries", "100000, 1000000")
	if err != nil || len(got) != 2 || got[0] != 100000 || got[1] != 1000000 {
		t.Fatalf("parseEntryCounts = %v, %v", got, err)
	}
	if got, err := parseEntryCounts("entries", ""); got != nil || err != nil {
		t.Fatalf("empty should defer to defaults, got %v, %v", got, err)
	}
	for _, bad := range []string{"abc", "0", "-5", "10,"} {
		if _, err := parseEntryCounts("entries", bad); err == nil {
			t.Errorf("parseEntryCounts(%q) should error", bad)
		}
	}

	// A bad value is reported under the flag that carried it.
	for _, tc := range []struct{ experiment, flag string }{
		{"annindex", "entries"},
		{"annindex", "ann-ef"},
		{"churn", "churn-mults"},
		{"tiered", "tier-ratios"},
	} {
		err := run([]string{"-experiment", tc.experiment, "-" + tc.flag, "0"})
		if err == nil {
			t.Errorf("-%s 0 should error", tc.flag)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "-"+tc.flag+" ") ||
			(tc.flag != "entries" && strings.Contains(msg, "-entries")) {
			t.Errorf("-%s 0: error %q should name -%s only", tc.flag, msg, tc.flag)
		}
	}
}

// TestRunANNIndexWritesJSON: the annindex experiment must emit a
// well-formed BENCH_*.json with the full three-way comparison.
func TestRunANNIndexWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI smoke test in -short mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_annindex.json")
	err := run([]string{
		"-experiment", "annindex",
		"-entries", "2000", "-ann-queries", "60", "-bench-out", out,
	})
	if err != nil {
		t.Fatalf("annindex run failed: %v", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Dim    int `json:"dim"`
		Points []struct {
			Entries int `json:"entries"`
			Flat    struct {
				HitRate float64 `json:"hitRate"`
			} `json:"flat"`
			Indexed struct {
				HitRate float64 `json:"hitRate"`
			} `json:"indexed"`
		} `json:"points"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("BENCH json is malformed: %v", err)
	}
	if len(res.Points) != 1 || res.Points[0].Entries != 2000 {
		t.Fatalf("unexpected points: %+v", res.Points)
	}
	if res.Points[0].Flat.HitRate == 0 || res.Points[0].Indexed.HitRate == 0 {
		t.Errorf("hit rates missing: %+v", res.Points[0])
	}
}
