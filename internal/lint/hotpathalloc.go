package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc flags allocating constructs inside functions annotated
// //proximity:hotpath. The annotated set (hnsw.SearchInto, the cache
// Get/TierGet paths, the tiered lookup) is what the repo benchmark's
// and BENCH_tiered's latency numbers rest on: one stray fmt call or boxed
// argument turns a zero-alloc steady state into per-query GC pressure
// that only shows up at p99 under load.
//
// Flagged: fmt.* calls, map/slice composite literals, make/new, append
// onto a guaranteed-fresh slice (a []T(nil) conversion), closures that
// capture variables, and concrete non-pointer values passed where an
// interface is expected (boxing). Struct literals, appends into
// caller-owned or pooled buffers, and non-capturing function literals
// are allocation-free or caller-controlled and stay silent. Calls
// inside panic arguments are skipped (the corruption path may format).
// Intentional allocations — e.g. the one caller-owned result copy a
// cache Get is budgeted — carry //proximity:allow hotpathalloc with the
// reason.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocations in //proximity:hotpath functions",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(p *Pass) {
	for _, fd := range p.HotpathFuncs() {
		panics := panicArgRanges(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if inRanges(panics, n.Pos()) {
					return true
				}
				p.checkHotCall(n)
			case *ast.CompositeLit:
				if inRanges(panics, n.Pos()) {
					return true
				}
				switch p.Info.TypeOf(n).Underlying().(type) {
				case *types.Map:
					p.Reportf(n.Pos(), "map literal allocates in hot path %s", fd.Name.Name)
				case *types.Slice:
					p.Reportf(n.Pos(), "slice literal allocates in hot path %s", fd.Name.Name)
				}
			case *ast.FuncLit:
				if caps := p.capturedVars(n); len(caps) > 0 {
					p.Reportf(n.Pos(), "closure capturing %s allocates in hot path %s",
						caps[0], fd.Name.Name)
				}
			}
			return true
		})
	}
}

func (p *Pass) checkHotCall(call *ast.CallExpr) {
	if path := p.calleePkgPath(call); path == "fmt" {
		p.Reportf(call.Pos(), "fmt call allocates in hot path (format off the hot path or precompute)")
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch obj.Name() {
			case "make":
				switch p.Info.TypeOf(call).Underlying().(type) {
				case *types.Map, *types.Slice, *types.Chan:
					p.Reportf(call.Pos(), "make allocates in hot path (preallocate or pool the buffer)")
				}
			case "new":
				p.Reportf(call.Pos(), "new allocates in hot path (preallocate or pool the value)")
			case "append":
				if len(call.Args) > 0 && p.freshSlice(call.Args[0]) {
					p.Reportf(call.Pos(), "append onto a fresh slice allocates in hot path (reuse a preallocated buffer)")
				}
			}
			return
		}
	}
	p.checkBoxing(call)
}

// freshSlice reports whether expr is a guaranteed-fresh slice — a
// []T(nil) conversion, the idiom for allocate-and-copy. Parameters,
// fields, and x[:0] re-slices are caller-owned or pooled and accepted.
func (p *Pass) freshSlice(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	if _, isSlice := p.Info.TypeOf(call).Underlying().(*types.Slice); !isSlice {
		return false
	}
	// A conversion (not a function call) whose operand is nil.
	if p.calleeFunc(call) != nil {
		return false
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && id.Name == "nil"
}

// checkBoxing flags concrete non-pointer arguments passed to interface
// parameters: storing a non-pointer value in an interface forces a heap
// allocation for the value's copy.
func (p *Pass) checkBoxing(call *ast.CallExpr) {
	fn := p.calleeFunc(call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			slice, ok := last.(*types.Slice)
			if !ok {
				continue
			}
			paramType = slice.Elem()
		case i < params.Len():
			paramType = params.At(i).Type()
		default:
			continue
		}
		if _, isTypeParam := paramType.(*types.TypeParam); isTypeParam {
			continue // instantiated at the argument's own type: nothing is boxed
		}
		if _, isIface := paramType.Underlying().(*types.Interface); !isIface {
			continue
		}
		argType := p.Info.TypeOf(arg)
		if argType == nil || argType == types.Typ[types.UntypedNil] {
			continue
		}
		switch argType.Underlying().(type) {
		case *types.Interface, *types.Pointer:
			continue // already boxed, or pointer (stored inline, no alloc)
		}
		p.Reportf(arg.Pos(), "passing %s to interface parameter of %s boxes it onto the heap",
			types.TypeString(argType, types.RelativeTo(p.Pkg)), fn.Name())
	}
}

// capturedVars returns the names of outer-scope variables a function
// literal captures (forcing a heap-allocated closure), in first-use
// order.
func (p *Pass) capturedVars(lit *ast.FuncLit) []string {
	var out []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || seen[v] || v.IsField() {
			return true
		}
		// Package-level vars (this package's or another's) are not
		// captures; neither is anything declared inside the literal.
		if v.Pkg() != p.Pkg || v.Parent() == p.Pkg.Scope() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}
