package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// UnusedAPI flags exported API that nothing runs: an exported
// package-level declaration or method of an internal/ package that no
// non-test file of the module names anywhere but in its own
// declaration. A method's receiver does not count as a use of its type,
// and a use inside a _test.go file counts for nothing, so API that only
// tests reach is reported too. Uses are gathered from every package of
// the module (cmd/, examples/, bench/ and the root package count), not
// only from the packages being checked.
//
// A method whose name and signature match a method of any interface in
// view (sort.Interface, json.Marshaler, error, fmt.Stringer, io.Closer,
// http.Handler, core.Cache, vectordb.DB, ...) is exempt: a call through
// an interface names the interface's method, never the concrete one.
//
// Resolve a finding by deleting the name (with whatever private code
// only it reaches), by moving it into a _test.go file when only tests
// use it, or — when an open ROADMAP item will use it — with
// //proximity:allow unusedapi item <N>.
var UnusedAPI = &Analyzer{
	Name: "unusedapi",
	Doc:  "exported names of internal/ packages need a non-test user somewhere in the module",
	Run:  runUnusedAPI,
}

func runUnusedAPI(p *Pass) {
	if !isInternal(p.Pkg.Path()) {
		return
	}
	u := p.uses()
	report := func(id *ast.Ident, what string) {
		obj := p.Info.Defs[id]
		key, ok := keyOf(obj)
		if !ok || u.names[key] {
			return
		}
		if fn, isFunc := obj.(*types.Func); isFunc && fn.Signature().Recv() != nil && u.ifaceMethods[methodKey(fn)] {
			return
		}
		p.Reportf(id.Pos(), "exported %s %s is named by no non-test file in the module", what, key)
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv != nil {
					report(d.Name, "method")
				} else {
					report(d.Name, "func")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							report(s.Name, "type")
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								report(id, d.Tok.String())
							}
						}
					}
				}
			}
		}
	}
}

// objKey names a package-level object or a method independently of
// which *types.Package holds it. The loader's shared source importer
// gives every importing package its own copy of an imported package, so
// the object a user names is never pointer-equal to the declaring
// package's Defs entry; the key is what matches them.
type objKey struct{ pkg, recv, name string }

func (k objKey) String() string {
	last := k.pkg[strings.LastIndexByte(k.pkg, '/')+1:]
	if k.recv != "" {
		return last + "." + k.recv + "." + k.name
	}
	return last + "." + k.name
}

// keyOf returns obj's key, or false for objects that are neither
// package-level nor methods of a named type (locals, fields, ...).
func keyOf(obj types.Object) (objKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return objKey{}, false
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := types.Unalias(t).(*types.Named)
			if !ok {
				return objKey{}, false
			}
			return objKey{o.Pkg().Path(), named.Obj().Name(), o.Name()}, true
		}
		obj = o
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return objKey{}, false
	}
	return objKey{obj.Pkg().Path(), "", obj.Name()}, true
}

// uses is what the non-test files of a set of packages name: every
// package-level object and method, by key, every interface method in
// view, by methodKey, every struct field read or written, and the names
// that _test.go files write (for deadfield).
type uses struct {
	names        map[objKey]bool
	ifaceMethods map[string]bool
	fields       map[token.Position]fieldUse
	seams        map[string]bool
}

func collectUses(pkgs []*Package) *uses {
	u := &uses{
		names:        make(map[objKey]bool),
		ifaceMethods: make(map[string]bool),
		fields:       make(map[token.Position]fieldUse),
		seams:        make(map[string]bool),
	}
	u.addInterface(types.Universe.Lookup("error").Type())
	seen := make(map[string]bool)
	var scan func(*types.Package)
	scan = func(pkg *types.Package) {
		if seen[pkg.Path()] {
			return
		}
		seen[pkg.Path()] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				u.addInterface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			scan(imp)
		}
	}
	walked := make(map[*Package]bool)
	for _, pkg := range pkgs {
		if walked[pkg] {
			continue
		}
		walked[pkg] = true
		scan(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				u.addInterface(tv.Type)
			}
		}
		for _, f := range pkg.Files {
			// writes holds the field selectors and literal keys that
			// the enclosing node, visited first, marks as written.
			writes := make(map[*ast.Ident]bool)
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					// A method's receiver is part of its declaration,
					// not a use of the receiver's type.
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					return false
				case *ast.Ident:
					obj := pkg.Info.Uses[n]
					if key, ok := keyOf(obj); ok {
						u.names[key] = true
					}
					if v, ok := obj.(*types.Var); ok && v.IsField() {
						u.useField(pkg.Fset, v, pkg.Types.Path(), writes[n])
					}
				default:
					markWrites(n, writes)
				}
				return true
			}
			ast.Inspect(f, visit)
		}
		for _, f := range pkg.Tests {
			writes := make(map[*ast.Ident]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				markWrites(n, writes)
				return true
			})
			for id := range writes {
				u.seams[id.Name] = true
			}
		}
	}
	return u
}

func (u *uses) addInterface(t types.Type) {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		u.ifaceMethods[methodKey(iface.Method(i))] = true
	}
}

// methodKey renders a method's name and signature without parameter
// names, with types qualified by package path and the alias any spelled
// interface{}, so the same method declared in an interface and on a
// concrete type, or seen through two copies of a package, renders the
// same.
func methodKey(fn *types.Func) string {
	sig := fn.Signature()
	qualify := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			if tuple == sig.Params() && sig.Variadic() && i == tuple.Len()-1 {
				b.WriteString("...")
			}
			b.WriteString(types.TypeString(tuple.At(i).Type(), qualify))
		}
		b.WriteByte(')')
	}
	return anyAlias.ReplaceAllString(b.String(), "${1}interface{}")
}

// anyAlias matches the universe alias any; every other named type is
// qualified by its package path, so a bare "any" is always the alias.
var anyAlias = regexp.MustCompile(`(^|[^\w./])any\b`)
