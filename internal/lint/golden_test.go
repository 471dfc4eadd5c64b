package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches the quoted expectations of a `// want "re" "re"`
// golden comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// fixtureImport is the import path of a fixture package under
// testdata. The proximity/internal/ prefix matters: path-scoped
// analyzers (atomicwrite, unusedapi) key off it, and it lets one fixture
// package import another.
func fixtureImport(dir string) string {
	return "proximity/internal/lint/" + filepath.ToSlash(dir)
}

// loadFixtures loads an analyzer's golden fixture: testdata/<name>/a is
// the package the analyzer checks, and every other package beside it
// (testdata/<name>/b, ...) is a user of a's API.
func loadFixtures(t *testing.T, name string) (pkg *Package, users []*Package) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		dir := filepath.Join("testdata", name, e.Name())
		p, err := LoadDir(dir, fixtureImport(dir))
		if err != nil {
			t.Fatalf("load fixture %s: %v", dir, err)
		}
		if e.Name() == "a" {
			pkg = p
		} else {
			users = append(users, p)
		}
	}
	if pkg == nil {
		t.Fatalf("fixture testdata/%s has no package a", name)
	}
	return pkg, users
}

// checkGolden runs one analyzer over pkg, with users counted as the
// rest of the module, and compares findings against pkg's
// `// want "regexp"` comments: every want must be matched by a finding
// on its line, and every finding must be wanted. Returns the list of
// mismatches (empty means pass) — the test harness for the suite.
func checkGolden(a *Analyzer, pkg *Package, users []*Package) ([]string, error) {
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" → expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						return nil, fmt.Errorf("lint: bad want regexp at %s: %w", key, err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	var problems []string
	for _, f := range Run([]*Package{pkg}, users, []*Analyzer{a}) {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("unexpected finding: %s", f))
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				problems = append(problems, fmt.Sprintf("%s: want %q, got no finding", key, w.re))
			}
		}
	}
	return problems, nil
}

// findingAt reports whether any finding sits at line in a file whose
// base name matches file.
func findingAt(findings []Finding, file string, line int) bool {
	for _, f := range findings {
		if strings.HasSuffix(f.Pos.Filename, file) && f.Pos.Line == line {
			return true
		}
	}
	return false
}

// LoadDir loads every .go file in dir as one package under the given
// import path, its _test.go files parsed only, as LoadPackages does.
// Used for testdata fixture packages, which `go list` deliberately
// cannot see; the import path is synthetic and chosen by the caller
// (path-scoped analyzers key off it).
func LoadDir(dir, importPath string) (*Package, error) {
	// The source importer finds a fixture that another imports by its
	// absolute path; deadfield matches the two copies' positions.
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	sort.Strings(matches)
	names := make([]string, len(matches))
	for i, m := range matches {
		names[i] = filepath.Base(m)
	}
	return shared.check(importPath, dir, names)
}
