package main

import "testing"

func TestRunList(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Fatalf("run(-list) = %d, want 0", code)
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	if code := run([]string{"-analyzers", "nosuch"}); code != 2 {
		t.Fatalf("run(-analyzers nosuch) = %d, want 2", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-definitely-not-a-flag"}); code != 2 {
		t.Fatalf("run(bad flag) = %d, want 2", code)
	}
}

func TestRunCleanPackage(t *testing.T) {
	if code := run([]string{"proximity/internal/telemetry"}); code != 0 {
		t.Fatalf("run(internal/telemetry) = %d, want 0 (clean tree)", code)
	}
}

func TestRunBadPattern(t *testing.T) {
	if code := run([]string{"proximity/no/such/package"}); code != 2 {
		t.Fatalf("run(bogus pattern) = %d, want 2", code)
	}
}

// TestRunUnusedAPIOnePackage: a pattern naming one package still counts
// uses from the whole module, so vec's exported names, used elsewhere,
// are clean.
func TestRunUnusedAPIOnePackage(t *testing.T) {
	if code := run([]string{"-analyzers", "unusedapi", "proximity/internal/vec"}); code != 0 {
		t.Fatalf("run(-analyzers unusedapi internal/vec) = %d, want 0", code)
	}
}

// TestRunDeadFieldOnePackage: deadfield, like unusedapi, counts reads
// and writes from the whole module, so vec's fields, read elsewhere, are
// clean when only vec is named.
func TestRunDeadFieldOnePackage(t *testing.T) {
	if code := run([]string{"-analyzers", "deadfield", "proximity/internal/vec"}); code != 0 {
		t.Fatalf("run(-analyzers deadfield internal/vec) = %d, want 0", code)
	}
}
