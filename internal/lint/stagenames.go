package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// StageNames enforces one vocabulary for telemetry series names: every
// name passed to a telemetry.Registry registration method must be a
// named constant declared in internal/telemetry (the Metric* registry
// in names.go). A typo'd string literal doesn't fail — it silently
// forks a fresh Prometheus series next to the real one, and every
// dashboard and alert keyed on the canonical name goes dark for the
// code path that misspelled it. Stage labels are already immune (the
// telemetry.Stage enum); this closes the same hole for series names.
//
// Non-constant expressions (a name threaded through a variable or
// helper parameter) are accepted: the registry constant was resolved
// upstream. Only in-place string literals and constants minted outside
// the telemetry package are flagged.
var StageNames = &Analyzer{
	Name: "stagenames",
	Doc:  "telemetry series names must come from the internal/telemetry registry",
	Run:  runStageNames,
}

// registrationMethods take a series name as their first argument.
var registrationMethods = map[string]bool{
	"CounterFunc": true, "GaugeFunc": true, "HistogramLabeled": true,
}

func runStageNames(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := p.calleeFunc(call)
			if fn == nil || !registrationMethods[fn.Name()] {
				return true
			}
			named := p.recvNamed(call)
			if named == nil {
				return true
			}
			obj := named.Obj()
			if obj.Name() != "Registry" || obj.Pkg() == nil ||
				!strings.HasSuffix(obj.Pkg().Path(), "internal/telemetry") {
				return true
			}
			p.checkSeriesName(call.Args[0], fn.Name())
			return true
		})
	}
}

func (p *Pass) checkSeriesName(arg ast.Expr, method string) {
	tv, ok := p.Info.Types[arg]
	if !ok || tv.Value == nil {
		return // not a compile-time constant: resolved upstream
	}
	obj := p.constObject(arg)
	if obj == nil {
		p.Reportf(arg.Pos(), "series name literal passed to Registry.%s: use a telemetry.Metric* constant so a typo cannot fork the series", method)
		return
	}
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/telemetry") {
		p.Reportf(arg.Pos(), "series name constant %s declared outside internal/telemetry: move it into the telemetry name registry", obj.Name())
	}
}

// constObject resolves arg to the named constant it references, or nil
// when arg is a literal or composite constant expression.
func (p *Pass) constObject(arg ast.Expr) *types.Const {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		c, _ := p.Info.Uses[e].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := p.Info.Uses[e.Sel].(*types.Const)
		return c
	}
	return nil
}
