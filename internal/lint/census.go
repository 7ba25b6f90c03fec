package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// StaticSite is one core.DeclareSite call recovered from source: the
// source-derived analog of core.Site, with its position.
type StaticSite struct {
	Bench   string `json:"bench"`
	Label   string `json:"label"`
	Pattern string `json:"pattern"`
	File    string `json:"file"`
	Line    int    `json:"line"`

	pattern core.Pattern
}

// StaticCensus is the source-derived pattern census, shaped like
// core.Census so the two can be diffed site-for-site.
type StaticCensus struct {
	Total     int                 `json:"total"`
	Irregular int                 `json:"irregular"`
	PerKind   map[string]int      `json:"perKind"`
	PerBench  map[string][]string `json:"perBench"`
	Sites     []StaticSite        `json:"sites"`
}

// ToCoreCensus converts the static census into core.Census form for
// direct comparison with core.TakeCensus().
func (c StaticCensus) ToCoreCensus() core.Census {
	out := core.Census{
		PerKind:  map[core.Pattern]int{},
		PerBench: map[string]map[core.Pattern]bool{},
	}
	for _, s := range c.Sites {
		out.Total++
		out.PerKind[s.pattern]++
		if s.pattern.Irregular() {
			out.Irregular++
		}
		m := out.PerBench[s.Bench]
		if m == nil {
			m = map[core.Pattern]bool{}
			out.PerBench[s.Bench] = m
		}
		m[s.pattern] = true
	}
	for b := range out.PerBench {
		out.Benches = append(out.Benches, b)
	}
	sort.Strings(out.Benches)
	return out
}

// patternByName maps source identifiers (core.RO, core.SngInd, ...) to
// patterns.
var patternByName = func() map[string]core.Pattern {
	m := map[string]core.Pattern{}
	for _, p := range core.Patterns {
		switch p {
		case core.DC:
			m["DC"] = p
		default:
			m[p.String()] = p
		}
	}
	return m
}()

// extractCensus walks every parsed file for core.DeclareSite calls,
// including calls made through file-local declaration-helper closures
// (a func literal bound to a variable whose string parameters feed
// DeclareSite, invoked with constant arguments — the style text.go uses
// to share one site list between sa and lrs). Conflicting
// re-declarations are recorded as pattern-mismatch diagnostics.
func (a *analysis) extractCensus() StaticCensus {
	c := StaticCensus{
		PerKind:  map[string]int{},
		PerBench: map[string][]string{},
	}
	seen := map[string]StaticSite{} // bench\x00label -> first site
	perBench := map[string]map[string]bool{}

	addSite := func(s StaticSite) {
		key := s.Bench + "\x00" + s.Label
		if prev, dup := seen[key]; dup {
			if prev.Pattern != s.Pattern {
				a.censusDiags = append(a.censusDiags, Diag{
					File: s.File, Line: s.Line, Col: 1,
					Rule:    "pattern-mismatch",
					Bench:   s.Bench,
					Pattern: s.Pattern,
					Msg: fmt.Sprintf("site %q re-declared as %s (first declared %s at %s:%d)",
						s.Label, s.Pattern, prev.Pattern, prev.File, prev.Line),
				})
			}
			return
		}
		seen[key] = s
		c.Sites = append(c.Sites, s)
		c.Total++
		c.PerKind[s.Pattern]++
		if s.pattern.Irregular() {
			c.Irregular++
		}
		if perBench[s.Bench] == nil {
			perBench[s.Bench] = map[string]bool{}
		}
		perBench[s.Bench][s.Pattern] = true
	}

	for _, pkg := range a.sortedPkgs() {
		for _, f := range pkg.files {
			a.extractFileSites(f, addSite)
		}
	}
	for b, pats := range perBench {
		list := make([]string, 0, len(pats))
		for _, p := range core.Patterns {
			name := p.String()
			if pats[name] {
				list = append(list, name)
			}
		}
		c.PerBench[b] = list
	}
	return c
}

// extractFileSites finds DeclareSite calls in one file, expanding
// file-local helper closures.
func (a *analysis) extractFileSites(f *fileInfo, add func(StaticSite)) {
	// Pass 1: find helper closures — func literals bound to an
	// identifier whose body calls DeclareSite with a string parameter as
	// the bench argument.
	helpers := map[string]*ast.FuncLit{}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if lit, ok := assign.Rhs[0].(*ast.FuncLit); ok {
			helpers[id.Name] = lit
		}
		return true
	})

	ast.Inspect(f.ast, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Direct core.DeclareSite(bench, label, pattern) calls. Calls
		// inside a helper closure's body are handled at the helper's
		// invocation sites, where the bench argument is known.
		if path, name, ok := callTarget(f, call); ok && isPath(path, corePath) && name == "DeclareSite" {
			for _, lit := range helpers {
				if call.Pos() >= lit.Body.Pos() && call.End() <= lit.Body.End() {
					return true
				}
			}
			if s, ok := a.declareSiteArgs(f, call, nil); ok {
				add(s)
			}
			return true
		}
		// Helper invocation: helperName("bench", ...).
		if id, ok := call.Fun.(*ast.Ident); ok {
			lit, isHelper := helpers[id.Name]
			if !isHelper {
				return true
			}
			binding := bindStringArgs(lit, call)
			if binding == nil {
				return true
			}
			ast.Inspect(lit.Body, func(inner ast.Node) bool {
				innerCall, ok := inner.(*ast.CallExpr)
				if !ok {
					return true
				}
				if path, name, ok := callTarget(f, innerCall); ok && isPath(path, corePath) && name == "DeclareSite" {
					if s, ok := a.declareSiteArgs(f, innerCall, binding); ok {
						add(s)
					}
				}
				return true
			})
		}
		return true
	})
}

// bindStringArgs maps a helper's parameter names to the constant string
// arguments of one invocation; nil when any argument is non-constant.
func bindStringArgs(lit *ast.FuncLit, call *ast.CallExpr) map[string]string {
	var params []string
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			params = append(params, name.Name)
		}
	}
	if len(params) != len(call.Args) {
		return nil
	}
	binding := map[string]string{}
	for i, arg := range call.Args {
		v, ok := stringConst(arg, nil)
		if !ok {
			return nil
		}
		binding[params[i]] = v
	}
	return binding
}

// stringConst evaluates a constant string expression: literals,
// concatenations, and identifiers present in binding.
func stringConst(e ast.Expr, binding map[string]string) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	case *ast.Ident:
		if binding != nil {
			if s, ok := binding[v.Name]; ok {
				return s, true
			}
		}
		return "", false
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, lok := stringConst(v.X, binding)
		r, rok := stringConst(v.Y, binding)
		return l + r, lok && rok
	case *ast.ParenExpr:
		return stringConst(v.X, binding)
	}
	return "", false
}

// declareSiteArgs decodes one DeclareSite call's arguments.
func (a *analysis) declareSiteArgs(f *fileInfo, call *ast.CallExpr, binding map[string]string) (StaticSite, bool) {
	pos := a.fset.Position(call.Pos())
	if len(call.Args) != 3 {
		return StaticSite{}, false
	}
	bench, bok := stringConst(call.Args[0], binding)
	label, lok := stringConst(call.Args[1], binding)
	pat, pok := patternArg(f, call.Args[2])
	if !bok || !lok || !pok {
		a.censusDiags = append(a.censusDiags, Diag{
			File: f.rel, Line: pos.Line, Col: pos.Column,
			Rule: "pattern-mismatch",
			Msg:  "DeclareSite arguments are not statically resolvable; the static census cannot verify this site",
		})
		return StaticSite{}, false
	}
	return StaticSite{
		Bench:   bench,
		Label:   label,
		Pattern: pat.String(),
		File:    f.rel,
		Line:    pos.Line,
		pattern: pat,
	}, true
}

// patternArg decodes a core.<Pattern> selector argument.
func patternArg(f *fileInfo, e ast.Expr) (core.Pattern, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return 0, false
	}
	if path, imported := f.imports[id.Name]; !imported || !isPath(path, corePath) {
		return 0, false
	}
	p, ok := patternByName[sel.Sel.Name]
	return p, ok
}

// benchesDeclaredIn returns the benches and patterns declared in one
// file, from the census site list.
func (c StaticCensus) benchesDeclaredIn(rel string) (benches []string, patterns map[core.Pattern]bool) {
	patterns = map[core.Pattern]bool{}
	seen := map[string]bool{}
	for _, s := range c.Sites {
		if s.File != rel {
			continue
		}
		if !seen[s.Bench] {
			seen[s.Bench] = true
			benches = append(benches, s.Bench)
		}
		patterns[s.pattern] = true
	}
	sort.Strings(benches)
	return benches, patterns
}

// String renders the census as the same ASCII shape report.Fig3 uses.
func (c StaticCensus) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "static census: %d sites, %d irregular\n", c.Total, c.Irregular)
	for _, p := range core.Patterns {
		fmt.Fprintf(&sb, "  %-7s %3d\n", p, c.PerKind[p.String()])
	}
	return sb.String()
}
