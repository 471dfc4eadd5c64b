// Package lint is the repo's static-analysis suite: eight analyzers
// that encode invariants the benchmarks and crash-safety guarantees
// rest on — zero-alloc hot paths, no blocking work under cache locks,
// one telemetry name vocabulary, crash-safe artifact writes, context
// threading, drained HTTP response bodies, and exported API, fields and
// options that some non-test code uses. The cmd/proximity-vet driver
// runs the suite over ./... and fails CI on findings.
//
// Two comment directives steer the analyzers:
//
//	//proximity:hotpath
//	    placed in a function's doc comment, marks it as an
//	    allocation-free hot path; hotpathalloc then flags allocating
//	    constructs inside it.
//
//	//proximity:allow <analyzer> [reason]
//	    placed on (or on the line above) a flagged line, suppresses
//	    that analyzer's finding there. The reason is free text but by
//	    convention always present — an allow without a why does not
//	    survive review. An unusedapi or deadfield allow names the open
//	    ROADMAP item that will use the name or field ("item 21").
//
// The suite is deliberately stdlib-only (go/ast + go/types + a source
// importer, packages enumerated via `go list -json`), preserving the
// module's zero-dependency stance.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Finding is one analyzer report at a source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named invariant check over a typechecked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package plus the report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	dirs     *directives
	findings *[]Finding
	uses     func() *uses
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc,
		LockDiscipline,
		StageNames,
		AtomicWrite,
		CtxFlow,
		BodyDrain,
		UnusedAPI,
		DeadField,
	}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(csv string) ([]*Analyzer, error) {
	all := Analyzers()
	if csv == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes analyzers over each package of pkgs, applies
// //proximity:allow suppressions, and returns the surviving findings
// sorted by position. module lists the packages whose non-test files
// count as users of an exported name or field (unusedapi, deadfield);
// pkgs always count, so a nil module treats pkgs as the whole program.
func Run(pkgs, module []*Package, analyzers []*Analyzer) []Finding {
	users := sync.OnceValue(func() *uses { return collectUses(slices.Concat(module, pkgs)) })
	var kept []Finding
	for _, pkg := range pkgs {
		dirs := parseDirectives(pkg.Fset, pkg.Files)
		var findings []Finding
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				dirs:     dirs,
				findings: &findings,
				uses:     users,
			}
			a.Run(pass)
		}
		for _, f := range findings {
			if !dirs.allowed(f.Analyzer, f.Pos) {
				kept = append(kept, f)
			}
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// directives indexes the //proximity: comment directives of a package
// by file and line.
type directives struct {
	// allow maps file → line → analyzer names allowed on that line.
	allow map[string]map[int][]string
	// hotpath maps file → set of lines carrying //proximity:hotpath.
	hotpath map[string]map[int]bool
}

const (
	allowPrefix   = "//proximity:allow"
	hotpathMarker = "//proximity:hotpath"
)

func parseDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{
		allow:   make(map[string]map[int][]string),
		hotpath: make(map[string]map[int]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				switch {
				case strings.HasPrefix(c.Text, allowPrefix):
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
					name, _, _ := strings.Cut(rest, " ")
					if name == "" {
						continue
					}
					byLine := d.allow[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						d.allow[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], name)
				case strings.HasPrefix(c.Text, hotpathMarker):
					lines := d.hotpath[pos.Filename]
					if lines == nil {
						lines = make(map[int]bool)
						d.hotpath[pos.Filename] = lines
					}
					lines[pos.Line] = true
				}
			}
		}
	}
	return d
}

// allowed reports whether an //proximity:allow directive for analyzer
// name covers pos: same line or the line directly above.
func (d *directives) allowed(name string, pos token.Position) bool {
	byLine := d.allow[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, n := range byLine[line] {
			if n == name || n == "all" {
				return true
			}
		}
	}
	return false
}

// HotpathFuncs returns the declared functions annotated
// //proximity:hotpath (directive anywhere in the doc comment, or on
// the line directly above an undocumented declaration).
func (p *Pass) HotpathFuncs() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if p.isHotpath(fd) {
				out = append(out, fd)
			}
		}
	}
	return out
}

func (p *Pass) isHotpath(fd *ast.FuncDecl) bool {
	declPos := p.Fset.Position(fd.Pos())
	lines := p.dirs.hotpath[declPos.Filename]
	if lines == nil {
		return false
	}
	if fd.Doc != nil {
		start := p.Fset.Position(fd.Doc.Pos()).Line
		for l := start; l < declPos.Line; l++ {
			if lines[l] {
				return true
			}
		}
	}
	return lines[declPos.Line-1]
}

// calleeFunc resolves the called function or method, or nil for
// builtins, type conversions, and calls through function values.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// calleePkgPath returns the defining package path of the callee ("" for
// builtins, conversions, and function-value calls).
func (p *Pass) calleePkgPath(call *ast.CallExpr) string {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isPkgFunc reports whether call invokes pkgPath.name (a package-level
// function, not a method).
func (p *Pass) isPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// recvNamed returns the named type of a method callee's receiver
// (dereferenced), or nil when call is not a method call.
func (p *Pass) recvNamed(call *ast.CallExpr) *types.Named {
	fn := p.calleeFunc(call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isMethodOn reports whether call invokes a method named name on the
// (possibly pointer-wrapped) named type pkgPath.typeName.
func (p *Pass) isMethodOn(call *ast.CallExpr, pkgPath, typeName, name string) bool {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Name() != name {
		return false
	}
	named := p.recvNamed(call)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// panicArgPositions collects the source ranges of every panic(...)
// argument in root, so analyzers can skip calls that only execute on a
// corruption path (the process is dying; formatting there is fine).
type posRange struct{ lo, hi token.Pos }

func panicArgRanges(root ast.Node) []posRange {
	var out []posRange
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			for _, arg := range call.Args {
				out = append(out, posRange{arg.Pos(), arg.End()})
			}
		}
		return true
	})
	return out
}

func inRanges(ranges []posRange, pos token.Pos) bool {
	for _, r := range ranges {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}
