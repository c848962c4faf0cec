// Package obsnames defines an analyzer enforcing the metric naming
// contract: every metric registered on an obs.Registry must have a
// darwin_-prefixed snake_case name supplied as a compile-time constant (no
// fmt.Sprintf names — dynamic names explode cardinality and defeat
// dashboard greps), and label keys must come from the bounded repo-wide
// vocabulary below.
//
// Test files are skipped (obs's own tests register scratch metrics), and
// deliberate departures carry //darwin:obsnames-exempt <reason>.
package obsnames

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the obsnames pass.
const name = "obsnames"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "require darwin_-prefixed snake_case const metric names and labels from the bounded vocabulary",
	Run:  run,
}

// registerMethods maps Registry method name -> index of the first label
// argument (-1 when the method takes no labels).
var registerMethods = map[string]int{
	"Counter":      -1,
	"CounterVec":   2,
	"Gauge":        -1,
	"GaugeVec":     2,
	"GaugeFunc":    -1,
	"Histogram":    -1,
	"HistogramVec": 3,
}

// allowedLabels is the bounded label vocabulary. Extending it is a
// deliberate, reviewed act: add the label here with the PR that first uses
// it.
var allowedLabels = map[string]bool{
	"daemon": true, "dataset": true, "endpoint": true, "kind": true,
	"method": true, "result": true, "route": true, "shard": true,
	"source": true, "stage": true, "state": true, "status": true,
	"type": true, "verb": true,
}

var namePattern = regexp.MustCompile(`^darwin_[a-z0-9]+(_[a-z0-9]+)*$`)

func run(pass *analysis.Pass) error {
	pass.CheckExemptReasons(name)
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(pass, call)
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	labelStart, ok := registerMethods[sel.Sel.Name]
	if !ok || !isObsRegistry(pass.TypesInfo.TypeOf(sel.X)) || len(call.Args) == 0 {
		return
	}
	if pass.ExemptAt(call.Pos(), name) {
		return
	}
	name, isConst := analysis.ConstString(pass.TypesInfo, call.Args[0])
	switch {
	case !isConst:
		pass.Reportf(call.Args[0].Pos(), "metric name must be a compile-time constant, not computed at runtime")
	case !namePattern.MatchString(name):
		pass.Reportf(call.Args[0].Pos(), "metric name %q must be darwin_-prefixed snake_case ([a-z0-9_])", name)
	}
	if labelStart < 0 || labelStart > len(call.Args) {
		return
	}
	for _, arg := range call.Args[labelStart:] {
		label, isConst := analysis.ConstString(pass.TypesInfo, arg)
		if !isConst {
			pass.Reportf(arg.Pos(), "metric label must be a compile-time constant from the bounded label vocabulary")
			continue
		}
		if !allowedLabels[label] {
			pass.Reportf(arg.Pos(), "metric label %q is not in the bounded label vocabulary; extend obsnames.allowedLabels deliberately if a new label is required", label)
		}
	}
}

// isObsRegistry reports whether t is (a pointer to) the obs Registry type.
func isObsRegistry(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Registry" || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "obs" || strings.HasSuffix(path, "/obs")
}
