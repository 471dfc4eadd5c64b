package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// DeadField flags exported fields of exported internal/ structs that
// carry nothing, by the module-wide uses unusedapi gathers:
//
//   - unread: no non-test file reads the field. A composite-literal key,
//     an assignment's left side (x.F += n too) and x.F++ are writes;
//     every other selector, &x.F and promoted ones included, is a read.
//   - unset: the struct's name ends in Options or Config, no non-test
//     code outside the field's package writes it, and code inside
//     writes it at one site at most (its default), so one value runs.
//     A func- or interface-typed field a _test.go file sets is a seam.
//
// Fields with a json tag (the encoder reads them) and embedded fields
// are exempt. Resolve a finding by deleting the field with whatever only
// computes it, by turning an unset option into a constant, or — when an
// open ROADMAP item will read or set it — with
// //proximity:allow deadfield item <N>.
var DeadField = &Analyzer{
	Name: "deadfield",
	Doc:  "exported fields of internal/ structs need a non-test reader, and options a second value",
	Run:  runDeadField,
}

func runDeadField(p *Pass) {
	path := p.Pkg.Path()
	if !isInternal(path) {
		return
	}
	u := p.uses()
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || ts.Assign.IsValid() {
					continue
				}
				option := strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						key := objKey{path, ts.Name.Name, id.Name}
						use := u.fields[p.Fset.Position(id.Pos())]
						switch {
						case !id.IsExported() || jsonTagged(field.Tag): // exempt
						case !use.read:
							p.Reportf(id.Pos(), "exported field %s is read by no non-test file in the module", key)
						case option && !use.outside && use.sites <= 1 && !u.isSeam(id.Name, p.Info.Defs[id].Type()):
							p.Reportf(id.Pos(), "option %s is set only inside its package, at %d site(s): one value runs", key, use.sites)
						}
					}
				}
			}
		}
	}
}

func isInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

func jsonTagged(tag *ast.BasicLit) bool {
	if tag == nil {
		return false
	}
	s, _ := strconv.Unquote(tag.Value)
	v, ok := reflect.StructTag(s).Lookup("json")
	return ok && v != "-"
}

// fieldUse is what non-test code does with one field: reads it
// anywhere, writes it outside its package, and writes it at how many
// sites inside.
type fieldUse struct {
	read, outside bool
	sites         int
}

// useField records a selector or literal key of field v in a non-test
// file of package user. Every user sees its own copy of an imported
// package, all parsed into one FileSet, so a field is keyed by the
// position of its declaration.
func (u *uses) useField(fset *token.FileSet, v *types.Var, user string, write bool) {
	pos := fset.Position(v.Origin().Pos())
	use := u.fields[pos]
	switch {
	case !write:
		use.read = true
	case v.Pkg().Path() == user:
		use.sites++
	default:
		use.outside = true
	}
	u.fields[pos] = use
}

// markWrites adds to writes the field selectors and literal keys that
// n writes, before the walk reaches them.
func markWrites(n ast.Node, writes map[*ast.Ident]bool) {
	var lhs []ast.Expr
	switch n := n.(type) {
	case *ast.AssignStmt:
		lhs = n.Lhs
	case *ast.IncDecStmt:
		lhs = []ast.Expr{n.X}
	case *ast.KeyValueExpr:
		if id, ok := n.Key.(*ast.Ident); ok {
			writes[id] = true
		}
	}
	for _, e := range lhs {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
}

// isSeam reports whether a field named name, of type t, is a func or
// interface that a _test.go file sets: test files are parsed without
// types, so a field counts as set when a test writes its name.
func (u *uses) isSeam(name string, t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Signature, *types.Interface:
		return u.seams[name]
	}
	return false
}
