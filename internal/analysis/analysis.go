// Package analysis is a minimal, dependency-free static-analysis framework
// modeled on golang.org/x/tools/go/analysis, plus the shared darwin:*
// annotation grammar used by the darwinlint analyzers.
//
// The module is intentionally zero-dependency, so instead of importing
// x/tools this package mirrors the parts of its API the analyzers need
// (Analyzer, Pass, Diagnostic, package facts). If the x/tools dependency is
// ever allowed, the analyzers port mechanically: the shapes are the same.
//
// # Annotation grammar
//
// Annotations are line comments beginning exactly with "//darwin:" (no
// space), in the style of //go: directives:
//
//	//darwin:replaypure
//	    On a function's doc comment: the function is replay-reachable and
//	    must stay a pure function of (engine, options, event seq).
//	    On a file's package clause doc: every function in that file.
//	//darwin:replaypure-exempt <reason>
//	    On (or immediately above) an offending line: suppress replaypure.
//	//darwin:lockrank <rank>
//	    On a mutex struct field or package var. Ranks, outermost first:
//	    store > gate > manager > job > workspace > index > mat > journal > heads.
//	//darwin:lockrank-callback <rank>
//	    On a function that invokes its func-typed argument while holding
//	    a lock of <rank>.
//	//darwin:lockorder-exempt <reason>
//	//darwin:mutating-handler
//	    On an HTTP handler that mutates state: every 2xx ack must be
//	    dominated by a durable journal append.
//	//darwin:journals
//	    On a function (or interface method) that durably journals —
//	    append and sync — before returning success.
//	//darwin:journalack-exempt <reason>
//	//darwin:errenvelope
//	    On a file's package clause doc: error responses written by this
//	    file must flow through the darwin envelope/taxonomy helpers.
//	//darwin:errenvelope-exempt <reason>
//	//darwin:obsnames-exempt <reason>
//
// Every *-exempt directive requires a non-empty reason so exemptions stay
// grep-auditable (`grep -rn "darwin:.*-exempt" --include='*.go'`).
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Diagnostic is one finding. Analyzer is filled in by the driver.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// A Pass presents one typechecked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records a diagnostic.
	Report func(Diagnostic)
	// ReadFact returns the raw fact blob this same analyzer exported for a
	// previously analyzed dependency package, or nil.
	ReadFact func(pkgPath string) []byte
	// WriteFact records this package's fact blob for downstream packages.
	WriteFact func(data []byte)

	dirs map[string][]Directive // "filename:line" -> directives
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportFactJSON marshals v as this package's fact for p.Analyzer.
func (p *Pass) ExportFactJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: marshal fact: %w", p.Analyzer.Name, err)
	}
	if p.WriteFact != nil {
		p.WriteFact(data)
	}
	return nil
}

// ImportFactJSON unmarshals the fact p.Analyzer exported for package path
// into v. It reports whether a fact was found.
func (p *Pass) ImportFactJSON(path string, v any) bool {
	if p.ReadFact == nil {
		return false
	}
	data := p.ReadFact(path)
	if data == nil {
		return false
	}
	return json.Unmarshal(data, v) == nil
}

// A Directive is one parsed //darwin:* annotation.
type Directive struct {
	Name string // e.g. "replaypure", "lockrank", "replaypure-exempt"
	Args string // remainder of the line, e.g. a rank or an exemption reason
	Pos  token.Pos
}

// parseDirective parses one comment's text as a darwin directive.
func parseDirective(text string, pos token.Pos) (Directive, bool) {
	const prefix = "//darwin:"
	if !strings.HasPrefix(text, prefix) {
		return Directive{}, false
	}
	rest := text[len(prefix):]
	name, args, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Args: strings.TrimSpace(args), Pos: pos}, true
}

// Directives returns all darwin directives in a comment group.
func Directives(cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		if d, ok := parseDirective(c.Text, c.Slash); ok {
			out = append(out, d)
		}
	}
	return out
}

// HasDirective returns the first directive named name in cg.
func HasDirective(cg *ast.CommentGroup, name string) (Directive, bool) {
	for _, d := range Directives(cg) {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

func (p *Pass) lineKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// lineDirectives lazily indexes every darwin directive by file:line.
func (p *Pass) lineDirectives() map[string][]Directive {
	if p.dirs != nil {
		return p.dirs
	}
	p.dirs = map[string][]Directive{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text, c.Slash)
				if !ok {
					continue
				}
				key := p.lineKey(p.Fset.Position(c.Slash))
				p.dirs[key] = append(p.dirs[key], d)
			}
		}
	}
	return p.dirs
}

// ExemptAt reports whether pos is covered by a //darwin:<name>-exempt
// directive on the same line or the line immediately above.
func (p *Pass) ExemptAt(pos token.Pos, name string) bool {
	want := name + "-exempt"
	at := p.Fset.Position(pos)
	dirs := p.lineDirectives()
	for _, line := range []int{at.Line, at.Line - 1} {
		key := fmt.Sprintf("%s:%d", at.Filename, line)
		for _, d := range dirs[key] {
			if d.Name == want {
				return true
			}
		}
	}
	return false
}

// CheckExemptReasons reports every <name>-exempt directive that lacks a
// reason. Exemptions must be justified to stay reviewable.
func (p *Pass) CheckExemptReasons(name string) {
	want := name + "-exempt"
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, d := range Directives(cg) {
				if d.Name == want && d.Args == "" {
					p.Reportf(d.Pos, "//darwin:%s requires a reason", want)
				}
			}
		}
	}
}

// FuncKey returns a stable cross-package key for fn: "Name" for package
// functions, "Recv.Name" or "(*Recv).Name" for methods (including interface
// methods of named interfaces).
func FuncKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	ptr := false
	if pt, isPtr := t.(*types.Pointer); isPtr {
		t = pt.Elem()
		ptr = true
	}
	name := ""
	if nt, isNamed := t.(*types.Named); isNamed {
		name = nt.Obj().Name()
	}
	if name == "" {
		// Unnamed receiver (e.g. method of an anonymous interface): fall
		// back to the bare method name; both export and import sides use
		// this same function, so keys stay consistent.
		return fn.Name()
	}
	if ptr {
		return "(*" + name + ")." + fn.Name()
	}
	return name + "." + fn.Name()
}

// CalleeFunc resolves the *types.Func invoked by call, if any. Interface
// method calls resolve to the interface method's declaration object.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// ConstInt evaluates expr as a constant integer via the type info.
func ConstInt(info *types.Info, expr ast.Expr) (int64, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return 0, false
	}
	var n int64
	if _, err := fmt.Sscanf(tv.Value.ExactString(), "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// ConstString evaluates expr as a constant string via the type info.
func ConstString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return "", false
	}
	s := tv.Value.ExactString()
	if len(s) >= 2 && s[0] == '"' {
		var out string
		if _, err := fmt.Sscanf(s, "%q", &out); err == nil {
			return out, true
		}
	}
	return "", false
}

// A Unit is one typechecked package ready to be analyzed.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// ReadFact returns the fact blob analyzer exported for pkgPath, or nil.
	ReadFact func(analyzer, pkgPath string) []byte
}

// Run executes the analyzers over the unit, returning position-sorted
// diagnostics and the facts each analyzer exported (keyed by analyzer name).
func (u *Unit) Run(azs []*Analyzer) ([]Diagnostic, map[string][]byte, error) {
	var diags []Diagnostic
	facts := map[string][]byte{}
	for _, a := range azs {
		a := a
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			Report: func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			},
			WriteFact: func(data []byte) { facts[a.Name] = data },
		}
		if u.ReadFact != nil {
			pass.ReadFact = func(pkgPath string) []byte { return u.ReadFact(a.Name, pkgPath) }
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, facts, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
