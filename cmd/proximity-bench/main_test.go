package main

import (
	"strings"
	"testing"
)

func TestSelectFigures(t *testing.T) {
	available := append([]figure{}, figures...)
	available = append(available, figure{name: "overhead"})

	all, err := selectFigures("all", available)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(figures) {
		t.Errorf("all selected %d figures, want %d", len(all), len(figures))
	}
	for _, f := range all {
		if f.name == "overhead" {
			t.Error("'all' should not include overhead")
		}
	}

	some, err := selectFigures("fig2, fig10", available)
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].name != "fig2" || some[1].name != "fig10" {
		t.Errorf("selection = %v", some)
	}

	ov, err := selectFigures("overhead", available)
	if err != nil {
		t.Fatal(err)
	}
	if len(ov) != 1 || ov[0].name != "overhead" {
		t.Errorf("overhead selection = %v", ov)
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
	if err := run([]string{"-experiment", "rebalance"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("rebalance is not an experiment: err = %v, want unknown experiment", err)
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
	err = run([]string{"-experiment", "tiered", "-tier-ratios", "0"})
	if err == nil || !strings.Contains(err.Error(), "-tier-ratios ") {
		t.Errorf("-tier-ratios 0: error %v should name -tier-ratios", err)
	}
}
