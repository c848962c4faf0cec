// Package lockorder defines an analyzer enforcing the repo's documented
// mutex ranking.
//
// Mutexes opt in via //darwin:lockrank <rank> on the struct field or package
// var. The documented order, outermost first:
//
//	store > gate > manager > job > workspace > index > mat > journal > heads
//
// While holding a lock of rank R, only locks of strictly lower rank may be
// acquired. The analyzer tracks acquisitions in source order within each
// function, propagates "ranks acquired" summaries across function calls
// (within the package by fixpoint, across packages by exported facts), and
// analyzes func-literal arguments to functions annotated
// //darwin:lockrank-callback <rank> as running with that rank held
// (SetMaterializeHook / WithIndexRead style callbacks). It also flags a
// ranked Lock with no reachable Unlock in the same function.
//
// Known-safe violations (e.g. a compaction path serialized by an exclusive
// appender gate) carry //darwin:lockorder-exempt <reason>.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the lockorder pass.
const name = "lockorder"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "enforce ranked mutex acquisition order and reachable unlocks",
	Run:  run,
}

// rankLevel maps rank names to levels; higher = outermost.
var rankLevel = map[string]int{
	"store":     80,
	"gate":      70,
	"manager":   60,
	"job":       50,
	"workspace": 40,
	"index":     30,
	"mat":       20,
	"journal":   10,
	"heads":     5,
}

const rankOrderDoc = "store > gate > manager > job > workspace > index > mat > journal > heads"

type funcFact struct {
	Acquires []string `json:"acquires,omitempty"`
	Callback string   `json:"callback,omitempty"`
}

type pkgFact struct {
	Funcs map[string]funcFact `json:"funcs,omitempty"`
}

type heldEntry struct {
	obj      types.Object
	rank     string
	pos      token.Pos
	released bool // explicit or deferred unlock seen
}

type lockAnalysis struct {
	pass      *analysis.Pass
	ranks     map[types.Object]string // ranked mutex fields/vars
	callbacks map[*types.Func]string  // fn -> rank held around its func arg
	summaries map[*types.Func]map[string]bool
	decls     map[*types.Func]*ast.FuncDecl
	factCache map[string]*pkgFact
}

func run(pass *analysis.Pass) error {
	pass.CheckExemptReasons(name)
	la := &lockAnalysis{
		pass:      pass,
		ranks:     map[types.Object]string{},
		callbacks: map[*types.Func]string{},
		summaries: map[*types.Func]map[string]bool{},
		decls:     map[*types.Func]*ast.FuncDecl{},
		factCache: map[string]*pkgFact{},
	}
	la.collectRanks()
	la.collectFuncs()
	la.computeSummaries()
	for fn, fd := range la.decls {
		_ = fn
		la.checkFunc(fd)
	}
	return la.exportFacts()
}

// collectRanks finds //darwin:lockrank annotations on struct fields and
// package vars.
func (la *lockAnalysis) collectRanks() {
	record := func(names []*ast.Ident, d analysis.Directive) {
		if _, ok := rankLevel[d.Args]; !ok {
			la.pass.Reportf(d.Pos, "unknown lock rank %q (known: %s)", d.Args, rankOrderDoc)
			return
		}
		for _, name := range names {
			if obj := la.pass.TypesInfo.Defs[name]; obj != nil {
				la.ranks[obj] = d.Args
			}
		}
	}
	for _, file := range la.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, f := range n.Fields.List {
					for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
						if d, ok := analysis.HasDirective(cg, "lockrank"); ok {
							record(f.Names, d)
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, cg := range []*ast.CommentGroup{n.Doc, vs.Doc, vs.Comment} {
						if d, ok := analysis.HasDirective(cg, "lockrank"); ok {
							record(vs.Names, d)
						}
					}
				}
			}
			return true
		})
	}
}

func (la *lockAnalysis) collectFuncs() {
	for _, file := range la.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := la.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			la.decls[fn] = fd
			if d, ok := analysis.HasDirective(fd.Doc, "lockrank-callback"); ok {
				if _, known := rankLevel[d.Args]; !known {
					la.pass.Reportf(d.Pos, "unknown lock rank %q (known: %s)", d.Args, rankOrderDoc)
				} else {
					la.callbacks[fn] = d.Args
				}
			}
		}
	}
}

// calleeInfo resolves the acquired-ranks summary and callback rank for a
// call target, consulting local summaries or imported package facts.
func (la *lockAnalysis) calleeInfo(fn *types.Func) (acquires map[string]bool, callback string) {
	if fn.Pkg() == la.pass.Pkg {
		return la.summaries[fn], la.callbacks[fn]
	}
	if fn.Pkg() == nil {
		return nil, ""
	}
	path := fn.Pkg().Path()
	fact, ok := la.factCache[path]
	if !ok {
		fact = &pkgFact{}
		if !la.pass.ImportFactJSON(path, fact) {
			fact = nil
		}
		la.factCache[path] = fact
	}
	if fact == nil || fact.Funcs == nil {
		return nil, ""
	}
	ff, ok := fact.Funcs[analysis.FuncKey(fn)]
	if !ok {
		return nil, ""
	}
	acq := map[string]bool{}
	for _, r := range ff.Acquires {
		acq[r] = true
	}
	return acq, ff.Callback
}

// computeSummaries fixpoints "ranks transitively acquired" per function.
func (la *lockAnalysis) computeSummaries() {
	for fn := range la.decls {
		la.summaries[fn] = map[string]bool{}
	}
	for changed, rounds := true, 0; changed && rounds < 20; rounds++ {
		changed = false
		for fn, fd := range la.decls {
			sum := la.summaries[fn]
			before := len(sum)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, rank, ok := la.lockCall(call); ok {
					sum[rank] = true
					return true
				}
				callee := analysis.CalleeFunc(la.pass.TypesInfo, call)
				if callee == nil {
					return true
				}
				acq, cb := la.calleeInfo(callee)
				for r := range acq {
					sum[r] = true
				}
				if cb != "" {
					sum[cb] = true
				}
				return true
			})
			if len(sum) != before {
				changed = true
			}
		}
	}
}

// lockCall reports whether call is <rankedMutex>.Lock/RLock (acquire=true)
// or Unlock/RUnlock (acquire=false via ok2).
func (la *lockAnalysis) lockCall(call *ast.CallExpr) (obj types.Object, rank string, acquire bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	obj = la.mutexObj(sel.X)
	if obj == nil {
		return nil, "", false
	}
	rank, ok = la.ranks[obj]
	if !ok {
		return nil, "", false
	}
	return obj, rank, true
}

func isAcquire(name string) bool { return name == "Lock" || name == "RLock" }

func (la *lockAnalysis) mutexObj(expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := la.pass.TypesInfo.Selections[e]; ok {
			return sel.Obj()
		}
		return la.pass.TypesInfo.Uses[e.Sel]
	case *ast.Ident:
		return la.pass.TypesInfo.Uses[e]
	}
	return nil
}

// checkFunc walks fd's body in source order tracking held ranked locks.
func (la *lockAnalysis) checkFunc(fd *ast.FuncDecl) {
	_, fnExempt := analysis.HasDirective(fd.Doc, "lockorder-exempt")
	held := []*heldEntry{}
	la.walk(fd.Body, &held, map[*ast.FuncLit]bool{})
	for _, h := range held {
		if h.released {
			continue
		}
		if fnExempt || la.pass.ExemptAt(h.pos, name) {
			continue
		}
		la.pass.Reportf(h.pos, "%s-ranked mutex locked without a reachable unlock in this function", h.rank)
	}
}

// walk processes node in source order, mutating held. handledLits marks
// func literals already analyzed as callback arguments.
func (la *lockAnalysis) walk(node ast.Node, held *[]*heldEntry, handledLits map[*ast.FuncLit]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if handledLits[n] {
				return false
			}
			// A detached closure: analyze as an independent function with
			// an empty held set.
			sub := []*heldEntry{}
			la.walk(n.Body, &sub, handledLits)
			for _, h := range sub {
				if !h.released && !la.pass.ExemptAt(h.pos, name) {
					la.pass.Reportf(h.pos, "%s-ranked mutex locked without a reachable unlock in this function literal", h.rank)
				}
			}
			return false
		case *ast.DeferStmt:
			la.handleCall(n.Call, held, handledLits, true)
			return false
		case *ast.CallExpr:
			la.handleCall(n, held, handledLits, false)
			return true
		}
		return true
	})
}

func (la *lockAnalysis) handleCall(call *ast.CallExpr, held *[]*heldEntry, handledLits map[*ast.FuncLit]bool, deferred bool) {
	if obj, rank, ok := la.lockCall(call); ok {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if isAcquire(sel.Sel.Name) {
			la.checkAcquire(call.Pos(), rank, *held, "acquiring")
			*held = append(*held, &heldEntry{obj: obj, rank: rank, pos: call.Pos()})
		} else {
			// Release the most recent unreleased entry for this mutex.
			for i := len(*held) - 1; i >= 0; i-- {
				h := (*held)[i]
				if h.obj == obj && !h.released {
					if deferred {
						h.released = true // held until return, but reachable
					} else {
						h.released = true
						*held = append((*held)[:i], (*held)[i+1:]...)
					}
					break
				}
			}
		}
		return
	}
	callee := analysis.CalleeFunc(la.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	acq, cb := la.calleeInfo(callee)
	if len(acq) > 0 {
		ranks := make([]string, 0, len(acq))
		for r := range acq {
			ranks = append(ranks, r)
		}
		sort.Strings(ranks)
		for _, r := range ranks {
			la.checkAcquireCall(call.Pos(), callee, r, *held)
		}
	}
	if cb != "" {
		la.checkAcquire(call.Pos(), cb, *held, "entering "+cb+"-ranked callback region via "+callee.Name()+", acquiring")
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			handledLits[lit] = true
			sub := append(append([]*heldEntry{}, *held...), &heldEntry{rank: cb, pos: call.Pos(), released: true})
			la.walk(lit.Body, &sub, handledLits)
		}
	}
}

// checkAcquire flags acquiring rank while any held rank is <= it.
func (la *lockAnalysis) checkAcquire(pos token.Pos, rank string, held []*heldEntry, verb string) {
	lvl := rankLevel[rank]
	for _, h := range held {
		if rankLevel[h.rank] <= lvl {
			if la.pass.ExemptAt(pos, name) {
				return
			}
			la.pass.Reportf(pos, "%s %s-ranked lock while holding %s-ranked lock; order is %s", verb, rank, h.rank, rankOrderDoc)
			return
		}
	}
}

func (la *lockAnalysis) checkAcquireCall(pos token.Pos, callee *types.Func, rank string, held []*heldEntry) {
	lvl := rankLevel[rank]
	for _, h := range held {
		if rankLevel[h.rank] <= lvl {
			if la.pass.ExemptAt(pos, name) {
				return
			}
			la.pass.Reportf(pos, "call to %s acquires %s-ranked lock while holding %s-ranked lock; order is %s", callee.Name(), rank, h.rank, rankOrderDoc)
			return
		}
	}
}

// exportFacts publishes per-function summaries and callback annotations for
// downstream packages.
func (la *lockAnalysis) exportFacts() error {
	fact := pkgFact{Funcs: map[string]funcFact{}}
	for fn, sum := range la.summaries {
		var ff funcFact
		for r := range sum {
			ff.Acquires = append(ff.Acquires, r)
		}
		sort.Strings(ff.Acquires)
		if cb, ok := la.callbacks[fn]; ok {
			ff.Callback = cb
		}
		if len(ff.Acquires) == 0 && ff.Callback == "" {
			continue
		}
		fact.Funcs[analysis.FuncKey(fn)] = ff
	}
	for fn, cb := range la.callbacks {
		if _, ok := fact.Funcs[analysis.FuncKey(fn)]; !ok {
			fact.Funcs[analysis.FuncKey(fn)] = funcFact{Callback: cb}
		}
	}
	return la.pass.ExportFactJSON(fact)
}
