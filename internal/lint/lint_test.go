package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestGolden runs every analyzer over its golden fixture: each // want
// must be matched by a finding on its line, and every finding must be
// wanted. The fixtures carry a true positive, a true negative, and an
// allow suppression per rule.
func TestGolden(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			pkg, users := loadFixtures(t, a.Name)
			problems, err := checkGolden(a, pkg, users)
			if err != nil {
				t.Fatalf("checkGolden(%s): %v", a.Name, err)
			}
			for _, p := range problems {
				t.Error(p)
			}
		})
	}
}

func TestAnalyzersSuite(t *testing.T) {
	all := Analyzers()
	if len(all) != 8 {
		t.Fatalf("suite has %d analyzers, want 8", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(Analyzers()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want full suite", len(all), err)
	}
	got, err := ByName(" bodydrain , hotpathalloc ")
	if err != nil {
		t.Fatalf("ByName subset: %v", err)
	}
	if len(got) != 2 || got[0].Name != "bodydrain" || got[1].Name != "hotpathalloc" {
		t.Fatalf("ByName subset = %v, want [bodydrain hotpathalloc]", got)
	}
	if _, err := ByName("nosuchanalyzer"); err == nil {
		t.Fatal("ByName(nosuchanalyzer) succeeded, want error")
	}
}

func TestFindingString(t *testing.T) {
	pkg, _ := loadFixtures(t, "atomicwrite")
	findings := Run([]*Package{pkg}, nil, []*Analyzer{AtomicWrite})
	if len(findings) == 0 {
		t.Fatal("no findings in atomicwrite fixture")
	}
	s := findings[0].String()
	if !strings.Contains(s, "a.go:") || !strings.Contains(s, ": atomicwrite: ") {
		t.Errorf("Finding.String() = %q, want file:line:col: analyzer: message form", s)
	}
	if !findingAt(findings, "a.go", findings[0].Pos.Line) {
		t.Error("FindingAt misses a reported line")
	}
	if findingAt(findings, "a.go", 99999) {
		t.Error("FindingAt reports a finding on an empty line")
	}
}

// TestAllowAll covers the `//proximity:allow all` escape hatch and that
// an allow only reaches its own line and the one below.
func TestAllowAll(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "os"

func f(path string) error {
	//proximity:allow all scratch output, torn file acceptable
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return f.Close()
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "proximity/internal/scratchfixture")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{pkg}, nil, []*Analyzer{AtomicWrite})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1 (WriteFile allowed, Create not): %v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "os.Create") {
		t.Errorf("surviving finding is %q, want the os.Create one", findings[0].Message)
	}
}

// TestPathScope: atomicwrite must not fire outside proximity/internal
// and proximity/cmd — examples and external trees are exempt.
func TestPathScope(t *testing.T) {
	pkg, err := LoadDir(filepath.Join("testdata", "atomicwrite", "a"), "example/demo")
	if err != nil {
		t.Fatal(err)
	}
	if findings := Run([]*Package{pkg}, nil, []*Analyzer{AtomicWrite}); len(findings) != 0 {
		t.Fatalf("atomicwrite fired on example/demo: %v", findings)
	}
}

// TestLoadPackages exercises the go list driver end to end on a real
// module package, and asserts the tree invariant the suite exists for:
// internal/telemetry itself is finding-free, its exported API used by
// the module's non-test code included.
func TestLoadPackages(t *testing.T) {
	pkgs, err := LoadPackages(".", "proximity/internal/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Types.Path() != "proximity/internal/telemetry" {
		t.Fatalf("LoadPackages = %v, want the one telemetry package", pkgs)
	}
	module, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(module, pkgs[0]) {
		t.Fatal("LoadModule loaded internal/telemetry a second time, want the loader's copy reused")
	}
	if findings := Run(pkgs, module, Analyzers()); len(findings) != 0 {
		t.Fatalf("internal/telemetry has findings: %v", findings)
	}
}

func TestLoadModuleOutsideModule(t *testing.T) {
	t.Setenv("GO111MODULE", "on")
	if _, err := LoadModule(t.TempDir()); err == nil {
		t.Fatal("LoadModule outside any module succeeded, want error")
	}
}

func TestLoadPackagesBadPattern(t *testing.T) {
	if _, err := LoadPackages(".", "proximity/no/such/package"); err == nil {
		t.Fatal("LoadPackages on a bogus pattern succeeded, want error")
	}
}

func TestLoadDirErrors(t *testing.T) {
	if _, err := LoadDir(t.TempDir(), "p"); err == nil {
		t.Fatal("LoadDir on an empty dir succeeded, want error")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package p\nfunc {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir, "p"); err == nil {
		t.Fatal("LoadDir on a parse error succeeded, want error")
	}
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "bad.go"), []byte("package p\nvar x undefinedType\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir2, "p"); err == nil {
		t.Fatal("LoadDir on a type error succeeded, want error")
	}
}

// TestCheckGoldenBadWant: an unparseable want regexp is a hard error,
// not a silent skip.
func TestCheckGoldenBadWant(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nvar x = 1 // want \"(unclosed\"\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkGolden(BodyDrain, pkg, nil); err == nil {
		t.Fatal("CheckGolden accepted a bad want regexp, want error")
	}
}

// TestCheckGoldenMismatch: an unmatched want and an unwanted finding
// both surface as problems.
func TestCheckGoldenMismatch(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "os"

func f(path string) error {
	return os.WriteFile(path, nil, 0o644)
}

var x = 1 // want "never reported"
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, "proximity/internal/scratchfixture")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := checkGolden(AtomicWrite, pkg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("got %d problems, want 2 (one unexpected finding, one unmatched want): %v",
			len(problems), problems)
	}
}
