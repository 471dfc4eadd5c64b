package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and typechecked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	// Tests are the package's _test.go files, parsed but not
	// typechecked: deadfield reads the fields they set by name.
	Tests []*ast.File
	Types *types.Package
	Info  *types.Info
}

// loader shares one FileSet and one source importer across every load
// in the process, so the (expensive) from-source typechecking of stdlib
// and intra-module dependencies happens once, not once per package.
type loader struct {
	mu   sync.Mutex
	fs   *token.FileSet
	imp  types.ImporterFrom
	pkgs map[string]*Package // by directory and files, so a second load is free
}

var shared = func() *loader {
	fs := token.NewFileSet()
	return &loader{
		fs:   fs,
		imp:  importer.ForCompiler(fs, "source", nil).(types.ImporterFrom),
		pkgs: make(map[string]*Package),
	}
}()

// check parses the given files and typechecks the non-test ones as one
// package rooted at importPath. Type errors are hard failures: the suite
// only analyzes trees that compile.
func (l *loader) check(importPath, dir string, filenames []string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	memo := importPath + "\x00" + dir + "\x00" + strings.Join(filenames, "\x00")
	if pkg, ok := l.pkgs[memo]; ok {
		return pkg, nil
	}
	var files, tests []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fs, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			//proximity:allow lockdiscipline cold error path; the loader lock is coarse by design (shared FileSet and importer)
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
		} else {
			files = append(files, f)
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(importPath, l.fs, files, info)
	if err != nil {
		//proximity:allow lockdiscipline cold error path; the loader lock is coarse by design (shared FileSet and importer)
		return nil, fmt.Errorf("lint: typecheck %s: %w", importPath, err)
	}
	l.pkgs[memo] = &Package{Fset: l.fs, Files: files, Tests: tests, Types: pkg, Info: info}
	return l.pkgs[memo], nil
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// LoadPackages enumerates patterns via `go list -json` run in dir and
// returns each matched package parsed and typechecked (non-test files,
// build-constraint filtered exactly as a build would), with its test
// files parsed.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		listed = append(listed, lp)
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })
	pkgs := make([]*Package, 0, len(listed))
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := shared.check(lp.ImportPath, lp.Dir, slices.Concat(lp.GoFiles, lp.TestGoFiles, lp.XTestGoFiles))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadModule loads every package of the module that contains dir — the
// pattern ./... run at the module root — whatever subdirectory dir is.
// These are the packages whose non-test files count as users for
// unusedapi and deadfield.
func LoadModule(dir string) ([]*Package, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	gomod := strings.TrimSpace(string(out))
	if err != nil || gomod == "" || gomod == os.DevNull {
		return nil, fmt.Errorf("lint: %s is not inside a module (go env GOMOD: %q, %v)", dir, gomod, err)
	}
	return LoadPackages(filepath.Dir(gomod), "./...")
}
